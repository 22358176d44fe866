//go:build go1.22

package serve

// shortControlEscapes: encoding/json spells \b and \f with their
// two-character escapes from Go 1.22 on.
const shortControlEscapes = true
