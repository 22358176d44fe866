// Package a switches over the real fo.Kind enum in every shape the
// kindswitch analyzer distinguishes: exhaustive, guarded, and the two
// silent-decay shapes it must report.
package a

import (
	"errors"
	"fmt"

	"ldpids/internal/fo"
)

// Exhaustive covers every registered kind; no default needed.
func Exhaustive(k fo.Kind) int {
	switch k {
	case fo.KindValue:
		return 1
	case fo.KindPacked:
		return 2
	case fo.KindHash:
		return 3
	case fo.KindCohort:
		return 4
	case fo.KindNumeric:
		return 5
	}
	return 0
}

// ExhaustiveWithDefault may carry any default it likes once all kinds are
// enumerated: the default is unreachable for known kinds, so it is the
// forward-compatibility path and need not error.
func ExhaustiveWithDefault(k fo.Kind) int {
	switch k {
	case fo.KindValue, fo.KindPacked, fo.KindHash, fo.KindCohort, fo.KindNumeric:
		return 1
	default:
		return 0
	}
}

// GuardedSubset handles two kinds and errors on the rest.
func GuardedSubset(k fo.Kind) (int, error) {
	switch k {
	case fo.KindPacked:
		return 1, nil
	case fo.KindHash:
		return 2, nil
	default:
		return 0, fmt.Errorf("unsupported kind %v", k)
	}
}

// GuardedNested errors from inside a conditional in the default; that
// still counts as failing loudly.
func GuardedNested(k fo.Kind, strict bool) (int, error) {
	switch k {
	case fo.KindValue:
		return 1, nil
	default:
		if strict {
			return 0, errors.New("unknown kind")
		}
		return -1, errors.New("unknown kind (lenient)")
	}
}

// PanicDefault panics on unknown kinds, which is as loud as an error.
func PanicDefault(k fo.Kind) int {
	switch k {
	case fo.KindValue, fo.KindPacked:
		return 1
	default:
		panic("unknown kind")
	}
}

// Bare misses kinds with no default at all.
func Bare(k fo.Kind) int {
	switch k { // want `does not cover fo.KindCohort, fo.KindHash, fo.KindNumeric and has no default`
	case fo.KindValue:
		return 1
	case fo.KindPacked:
		return 2
	}
	return 0
}

// SwallowingDefault decays unknown kinds into a zero value.
func SwallowingDefault(k fo.Kind) int {
	switch k { // want `default neither returns an error nor panics`
	case fo.KindValue, fo.KindPacked, fo.KindHash:
		return 1
	default:
		return 0
	}
}

// NilErrorDefault returns a nil error from the default, which is just as
// silent as returning zero.
func NilErrorDefault(k fo.Kind) (int, error) {
	switch k { // want `default neither returns an error nor panics`
	case fo.KindValue:
		return 1, nil
	default:
		return 0, nil
	}
}

// StringSwitch is the wire-format shape: switching on strings is out of
// scope for this analyzer.
func StringSwitch(kind string) int {
	switch kind {
	case "value":
		return 1
	}
	return 0
}

// IntSwitch is an unrelated typed switch; also out of scope.
func IntSwitch(n int) int {
	switch n {
	case 1:
		return 1
	}
	return 0
}
