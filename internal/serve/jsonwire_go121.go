//go:build !go1.22

package serve

// shortControlEscapes: before Go 1.22 encoding/json spells \b and \f as
// \u0008 and \u000c.
const shortControlEscapes = false
