package serve

import (
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// The JSON batch wire, written once for its one schema in one canonical
// grammar. A POST /v1/report body is
//
//	{"round":R,"token":"T","reports":[{"user":U,"kind":"K","value":V,"seed":S,"packed":"B64","num":F},…]}
//
// with value, seed, packed and num omitted when zero or empty, as
// encoding/json's omitempty drops them from history.Report; the encoder
// writes exactly the bytes encoding/json would. The decoder reads, in one
// pass without reflection, exactly this grammar:
//
//   - keys are the exact names above, each at most once per object, in
//     any order; an absent field is zero;
//   - RFC 8259 whitespace may separate tokens, as in pretty-printed bodies;
//   - a string is printable ASCII other than " and \, with no escapes:
//     hex tokens, constant kind names, standard padded base64 payloads;
//   - round, user and value are integer literals within int64, seed one
//     within uint64, num any RFC 8259 number a float64 holds.
//
// Anything else is malformed: unknown or duplicate keys, null, escapes,
// non-ASCII, the retired bits payload, byte arrays, bytes after the batch.
// json.Unmarshal accepts every body the decoder does, to the same values,
// but not the reverse: each extra spelling is one more place where the
// server, a proxy and a re-decoding checker could disagree. The decoded
// batch aliases the request's scratch: the token points into the body,
// packed payloads into one pooled arena; kind names are constants.

// encodeJSON renders the chunk as the JSON wire's batch — byte for byte
// what encoding/json writes for it — appending straight from the reports
// into frame's storage: a caller that hands the returned frame back
// allocates nothing once the frame has grown to its chunks. A token that
// fails validToken is refused, as are numeric reports that are NaN or
// ±Inf, which encoding/json refuses.
func (k chunk) encodeJSON(frame []byte) ([]byte, error) {
	if !validToken(k.token) {
		return nil, fmt.Errorf("serve: round token %q has no canonical JSON spelling", k.token)
	}
	b := append(frame[:0], `{"round":`...)
	b = strconv.AppendInt(b, k.round, 10)
	b = append(b, `,"token":"`...)
	b = append(b, k.token...)
	b = append(b, `","reports":[`...)
	for i, r := range k.reports {
		var (
			name      string
			packed    []byte
			seed, num = r.Seed, 0.0
		)
		switch r.Kind {
		case fo.KindValue:
			name = "value"
		case fo.KindPacked:
			name, packed = "packed", r.Packed
		case fo.KindHash:
			name = "hash"
		case fo.KindCohort:
			name = "cohort"
		case fo.KindNumeric:
			name, seed, num = "numeric", 0, math.Float64frombits(r.Seed)
			if math.IsNaN(num) || math.IsInf(num, 0) {
				return nil, fmt.Errorf("serve: numeric report %v of user %d has no JSON encoding", num, k.users[i])
			}
		default:
			return nil, fmt.Errorf("serve: cannot JSON-encode report kind %s", r.Kind)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"user":`...)
		b = strconv.AppendInt(b, int64(k.users[i]), 10)
		b = append(b, `,"kind":"`...)
		b = append(b, name...)
		b = append(b, '"')
		if r.Value != 0 {
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, int64(r.Value), 10)
		}
		if seed != 0 {
			b = append(b, `,"seed":`...)
			b = strconv.AppendUint(b, seed, 10)
		}
		if len(packed) > 0 {
			b = append(b, `,"packed":"`...)
			n := base64.StdEncoding.EncodedLen(len(packed))
			b = slices.Grow(b, n)[:len(b)+n]
			base64.StdEncoding.Encode(b[len(b)-n:], packed)
			b = append(b, '"')
		}
		if num != 0 {
			b = append(b, `,"num":`...)
			b = appendJSONFloat(b, num)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// validToken reports whether a round token has one spelling on the JSON
// wire: non-empty, every byte one the decoder reads as it is
// (plainStringByte) and encoding/json writes as it is (not < > &).
// Minted tokens are hex; Rounds.Pin refuses any token that fails this.
func validToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainStringByte[c] || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return s != ""
}

// appendJSONFloat appends a finite f as encoding/json formats a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21, with the exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// decodeJSON reads one JSON batch of at most limit bytes (ReadFrame's
// sizing hint) into s and parses it. The count cap applies after a
// complete parse: a body malformed anywhere is malformed whatever its
// size. The batch aliases s until s returns to its pool. A body with bytes
// after its batch still returns round and token, for the journal record.
func decodeJSON(body io.Reader, limit int64, maxBatch int, s *ingestScratch) (wireBatch, error) {
	data, err := ReadFrame(body, s.frame, limit)
	s.frame = data[:0]
	if err != nil {
		return wireBatch{}, err
	}
	p := jsonParser{data: data, reports: s.reports[:0], arena: s.arena[:0]}
	b, err := p.batch()
	s.reports, s.arena = p.reports[:0], p.arena[:0]
	if err == nil && len(b.reports) > maxBatch {
		err = batchTooLargeError{len(b.reports), maxBatch}
	}
	return b, err
}

// jsonParser is one pass over a JSON batch body.
type jsonParser struct {
	data    []byte
	off     int
	reports []history.Report
	arena   []byte // decoded packed payloads
}

// The schema's fields, one bit each: the batch's, then a report's.
const (
	fieldRound = 1 << iota
	fieldToken
	fieldReports
	fieldUser
	fieldKind
	fieldValue
	fieldSeed
	fieldPacked
	fieldNum

	batchFields  = fieldRound | fieldToken | fieldReports
	reportFields = fieldUser | fieldKind | fieldValue | fieldSeed | fieldPacked | fieldNum
)

// field is the schema field an object key names exactly; 0 for none.
func field(key []byte) int {
	switch string(key) {
	case "round":
		return fieldRound
	case "token":
		return fieldToken
	case "reports":
		return fieldReports
	case "user":
		return fieldUser
	case "kind":
		return fieldKind
	case "value":
		return fieldValue
	case "seed":
		return fieldSeed
	case "packed":
		return fieldPacked
	case "num":
		return fieldNum
	}
	return 0
}

// syntax is the error of a body that leaves the grammar at p.off.
func (p *jsonParser) syntax(msg string) error {
	if p.off >= len(p.data) {
		msg = "unexpected end of input"
	}
	return fmt.Errorf("serve: JSON batch: %s at offset %d", msg, p.off)
}

// key parses an object's next key — first: just past its '{' — and
// returns the field it names among fields, adding it to seen, with p.off
// just past the ':'; 0 after the closing '}'. A key naming none of fields,
// or one already in seen, is malformed.
func (p *jsonParser) key(first bool, fields int, seen *int) (int, error) {
	if done, err := p.next(first, '}'); done || err != nil {
		return 0, err
	}
	key, err := p.str()
	if err != nil {
		return 0, err
	}
	f := field(key) & fields
	switch {
	case f == 0:
		return 0, p.syntax(fmt.Sprintf("unknown key %q", key))
	case *seen&f != 0:
		return 0, p.syntax(fmt.Sprintf("duplicate key %q", key))
	case p.peek() != ':':
		return 0, p.syntax("expected : after an object key")
	}
	*seen |= f
	p.off++
	return f, nil
}

// next advances to a container's next item — first: just past its
// opening bracket — or returns done past its closing one, end.
func (p *jsonParser) next(first bool, end byte) (done bool, err error) {
	switch c := p.peek(); {
	case c == end:
		p.off++
		return true, nil
	case first:
		return false, nil
	case c != ',':
		return false, p.syntax("expected , or a closing bracket")
	}
	p.off++
	return false, nil
}

// batch parses the whole body.
func (p *jsonParser) batch() (wireBatch, error) {
	var b wireBatch
	if p.peek() != '{' {
		return wireBatch{}, p.syntax("expected the batch object")
	}
	p.off++
	for seen, first := 0, true; ; first = false {
		f, err := p.key(first, batchFields, &seen)
		switch f {
		case fieldRound:
			err = setInt(p, &b.round, "round")
		case fieldToken:
			b.token, err = p.str()
		case fieldReports:
			b.reports, err = p.reportList()
		}
		if err != nil {
			return wireBatch{}, err
		}
		if f == 0 {
			break
		}
	}
	if p.peek(); p.off < len(p.data) {
		return wireBatch{round: b.round, token: b.token},
			fmt.Errorf("serve: JSON batch: %d trailing bytes after the batch", len(p.data)-p.off)
	}
	return b, nil
}

// reportList parses the reports array at p.off into p.reports.
func (p *jsonParser) reportList() ([]history.Report, error) {
	if p.peek() != '[' {
		return nil, p.syntax("expected the reports array")
	}
	p.off++
	for first := true; ; first = false {
		if done, err := p.next(first, ']'); done || err != nil {
			if len(p.reports) == 0 && err == nil {
				return []history.Report{}, nil // as encoding/json decodes []
			}
			return p.reports, err
		}
		p.reports = append(p.reports, history.Report{})
		if err := p.report(&p.reports[len(p.reports)-1]); err != nil {
			return nil, err
		}
	}
}

// report parses one report object at p.off into r.
func (p *jsonParser) report(r *history.Report) error {
	if p.peek() != '{' {
		return p.syntax("expected a report object")
	}
	p.off++
	for seen, first := 0, true; ; first = false {
		f, err := p.key(first, reportFields, &seen)
		switch f {
		case fieldUser:
			err = setInt(p, &r.User, "user")
		case fieldKind:
			var name []byte
			if name, err = p.str(); err == nil {
				r.Kind = kindName(name)
			}
		case fieldValue:
			err = setInt(p, &r.Value, "value")
		case fieldSeed:
			var ok bool
			if r.Seed, ok = parseUint(p.number()); !ok {
				err = p.syntax("seed is not an integer within uint64")
			}
		case fieldPacked:
			r.Packed, err = p.packed()
		case fieldNum:
			if r.Num, err = strconv.ParseFloat(string(p.number()), 64); err != nil {
				err = p.syntax("num is not a number a float64 holds")
			}
		}
		if f == 0 || err != nil {
			return err
		}
	}
}

// kindNames are the report kinds' names, interned by kindName.
var kindNames = [...]string{"value", "packed", "hash", "cohort", "numeric"}

// kindName interns a report kind to its constant name; an unknown one is
// copied, for the per-report decode to refuse.
func kindName(s []byte) string {
	for _, name := range kindNames {
		if string(s) == name {
			return name
		}
	}
	return string(s)
}

// packed parses a packed payload at p.off, standard padded base64, into
// the arena.
func (p *jsonParser) packed() ([]byte, error) {
	s, err := p.str()
	if err != nil {
		return nil, err
	}
	dst := p.alloc(base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(dst, s)
	switch {
	case err != nil:
		return nil, p.syntax("packed is not standard padded base64")
	case n == 0:
		return []byte{}, nil // as encoding/json decodes ""
	}
	return dst[:n], nil
}

// alloc reserves n bytes of the arena. The arena never moves under a
// slice it handed out: when it is full, a fresh one takes over.
func (p *jsonParser) alloc(n int) []byte {
	if cap(p.arena)-len(p.arena) < n {
		p.arena = make([]byte, 0, max(2*cap(p.arena), n, 4<<10))
	}
	start := len(p.arena)
	p.arena = p.arena[:start+n]
	return p.arena[start : start+n : start+n]
}

// setInt parses an integer literal at p.off into f, which must hold it.
func setInt[T int | int64](p *jsonParser, f *T, name string) error {
	i, ok := parseInt(p.number())
	if !ok || int64(T(i)) != i {
		return p.syntax(name + " is not an integer its field holds")
	}
	*f = T(i)
	return nil
}

// parseUint parses an unsigned integer literal; false when lit is empty,
// has a sign, fraction or exponent, or overflows uint64.
func parseUint(lit []byte) (uint64, bool) {
	var v uint64
	for _, c := range lit {
		if c < '0' || c > '9' || v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, len(lit) > 0
}

// parseInt parses a signed integer literal within int64.
func parseInt(lit []byte) (int64, bool) {
	if len(lit) == 0 || lit[0] != '-' {
		u, ok := parseUint(lit)
		return int64(u), ok && u <= math.MaxInt64
	}
	u, ok := parseUint(lit[1:])
	return -int64(u), ok && u <= 1<<63
}

// peek skips RFC 8259 whitespace and returns the next byte, 0 at the end
// of input.
func (p *jsonParser) peek() byte {
	for ; p.off < len(p.data); p.off++ {
		if c := p.data[p.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// number passes over the number literal at p.off (RFC 8259 grammar) and
// returns it; nil when there is none.
func (p *jsonParser) number() []byte {
	p.peek()
	data, start := p.data, p.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	j := i
	i, ok := digits(data, i)
	ok = ok && (data[j] != '0' || i == j+1) // no leading zeros
	if ok && i < len(data) && data[i] == '.' {
		i, ok = digits(data, i+1)
	}
	if ok && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i, ok = digits(data, i)
	}
	p.off = i
	if !ok {
		return nil
	}
	return data[start:i]
}

// digits passes over the run of decimal digits at data[i:], false when
// there is none.
func digits(data []byte, i int) (int, bool) {
	start := i
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	return i, i > start
}

// plainStringByte marks the bytes a string may hold: printable ASCII
// other than the quote and the backslash. A string's bytes are its value.
var plainStringByte = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str passes over the string at p.off and returns its content.
func (p *jsonParser) str() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.syntax("expected a string")
	}
	data, i := p.data, p.off+1
	start := i
	for i < len(data) && plainStringByte[data[i]] {
		i++
	}
	p.off = i
	if i == len(data) || data[i] != '"' {
		return nil, p.syntax(`a string holds printable ASCII other than " and \ only`)
	}
	p.off++
	return data[start:i], nil
}
