//go:build race

package experiment

func init() { raceDetector = true }
