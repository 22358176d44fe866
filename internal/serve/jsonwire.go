package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// The JSON batch wire, written once for its one schema. A POST
// /v1/report body is
//
//	{"round":R,"token":"T","reports":[{"user":U,"kind":"K","value":V,"seed":S,"bits":"B64","packed":"B64","num":F},…]}
//
// with value, seed, bits, packed and num omitted when zero or empty, as
// encoding/json's omitempty drops them from history.Report. bits is the
// retired byte-per-element unary payload: it still decodes, as the
// journal's legacy field, and the per-report decode refuses its kind; no
// report encodes to it. The encoder writes exactly the bytes encoding/json
// would for that batch, and the decoder accepts exactly the bodies
// json.Unmarshal accepts into it, to the same values, in one pass without
// reflection:
//
//   - the RFC 8259 grammar, nesting at most 10000 deep; bytes after the
//     batch are malformed (the binary wire's trailing-bytes rule);
//   - keys match a field exactly, else under Unicode case folding
//     (bytes.EqualFold); the last duplicate wins, a repeated array
//     decodes over the elements its predecessor left, unknown keys are
//     skipped;
//   - null leaves a number or string field as it was, and clears reports,
//     bits and packed;
//   - user, value and round take only integer literals within int64, seed
//     only non-negative ones within uint64, num any number a float64
//     holds;
//   - strings decode escapes and surrogate pairs, and coerce invalid
//     UTF-8 and lone surrogates to U+FFFD; bits and packed are standard
//     padded base64 or JSON arrays of bytes;
//   - a value of the wrong type refuses the batch.
//
// The decoded batch aliases the request's scratch: the token and
// escape-free strings point into the body, escaped strings and base64
// payloads into one pooled arena, kind names are the constant strings.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// jsonHex spells a byte's hex digits in \u escapes.
const jsonHex = "0123456789abcdef"

// encodeJSON renders the chunk as the JSON wire's batch — byte for byte
// what encoding/json writes for it — appending straight from the reports
// into frame's storage: a caller that hands the returned frame back
// allocates nothing once the frame has grown to its chunks. Numeric
// reports that are NaN or ±Inf are refused, as encoding/json refuses them.
func (k chunk) encodeJSON(frame []byte) ([]byte, error) {
	b := append(frame[:0], `{"round":`...)
	b = strconv.AppendInt(b, k.round, 10)
	b = append(b, `,"token":`...)
	b = appendJSONString(b, k.token)
	b = append(b, `,"reports":[`...)
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

// appendJSONString appends s as encoding/json quotes a string: HTML
// metacharacters, control bytes, U+2028 and U+2029 escaped, invalid UTF-8
// coerced to \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case shortControlEscapes && c == '\b':
				b = append(b, '\\', 'b')
			case shortControlEscapes && c == '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
// sizing hint) into s and parses it in one pass. The count cap applies
// after a complete parse, so a body that is malformed anywhere is
// malformed whatever its size. The batch aliases s and is valid until s
// returns to its pool. Round and token are returned even on error once the
// batch object itself parsed, for the refusal's journal record.
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
	data []byte
	off  int
	// reports holds every element the batch's reports arrays wrote since
	// the field was last cleared: a repeated "reports" key decodes over
	// them, as encoding/json decodes into the slice it already holds.
	reports []history.Report
	arena   []byte // the decoded token when escaped, and decoded payloads
	words   []byte // an escaped key, kind or base64 text, decoded
	// mistyped is the first value that did not fit its field. Like
	// encoding/json, the parse goes on past it — any syntax error still
	// takes precedence — and then refuses the batch with it.
	mistyped error
}

// The schema's fields: the batch's, then a report's, in struct order.
const (
	fieldUnknown = iota
	fieldRound
	fieldToken
	fieldReports
	fieldUser
	fieldKind
	fieldValue
	fieldSeed
	fieldBits
	fieldPacked
	fieldNum
)

// fieldNames are the fields' keys.
var fieldNames = [...]string{fieldRound: "round", fieldToken: "token", fieldReports: "reports",
	fieldUser: "user", fieldKind: "kind", fieldValue: "value", fieldSeed: "seed",
	fieldBits: "bits", fieldPacked: "packed", fieldNum: "num"}

// batchField matches an object key to a batch field the way encoding/json
// matches struct fields: exactly, else under Unicode case folding.
func batchField(key []byte) int {
	switch string(key) {
	case "round":
		return fieldRound
	case "token":
		return fieldToken
	case "reports":
		return fieldReports
	}
	return foldField(key, fieldRound, fieldReports)
}

// reportField matches an object key to a report field, as batchField.
func reportField(key []byte) int {
	switch string(key) {
	case "user":
		return fieldUser
	case "kind":
		return fieldKind
	case "value":
		return fieldValue
	case "seed":
		return fieldSeed
	case "bits":
		return fieldBits
	case "packed":
		return fieldPacked
	case "num":
		return fieldNum
	}
	return foldField(key, fieldUser, fieldNum)
}

// foldField matches key to one of the fields first…last under Unicode
// case folding.
func foldField(key []byte, first, last int) int {
	for f := first; f <= last; f++ {
		if bytes.EqualFold(key, []byte(fieldNames[f])) {
			return f
		}
	}
	return fieldUnknown
}

// jsonSyntaxError is a body that is not one well-formed JSON value.
type jsonSyntaxError struct {
	msg string
	off int
}

func (e *jsonSyntaxError) Error() string {
	return fmt.Sprintf("serve: JSON batch: %s at offset %d", e.msg, e.off)
}

func (p *jsonParser) syntax(msg string) error {
	if p.off >= len(p.data) {
		msg = "unexpected end of input"
	}
	return &jsonSyntaxError{msg, p.off}
}

// mistype records a value of the wrong type for field, keeping the first.
func (p *jsonParser) mistype(field string) {
	if p.mistyped == nil {
		p.mistyped = fmt.Errorf("serve: JSON batch: the value at offset %d cannot fill %s", p.off, field)
	}
}

// batch parses the whole body.
func (p *jsonParser) batch() (wireBatch, error) {
	var b wireBatch
	c, err := p.peek()
	if err != nil {
		return wireBatch{}, err
	}
	switch c {
	case '{':
		err = p.header(&b)
	case 'n':
		err = p.literal("null")
	default:
		p.mistype("the batch")
		err = p.skip(0)
	}
	if err != nil {
		return wireBatch{}, err
	}
	head := wireBatch{round: b.round, token: b.token}
	for p.off < len(p.data) && isJSONSpace(p.data[p.off]) {
		p.off++
	}
	if p.off < len(p.data) {
		return head, fmt.Errorf("serve: JSON batch: %d trailing bytes after the batch", len(p.data)-p.off)
	}
	if p.mistyped != nil {
		return head, p.mistyped
	}
	return b, nil
}

// header parses the batch object at p.off (nesting depth 1).
func (p *jsonParser) header(b *wireBatch) error {
	p.off++
	for first := true; ; first = false {
		key, clean, done, err := p.member(first)
		if err != nil || done {
			return err
		}
		switch batchField(p.word(key, clean)) {
		case fieldRound:
			err = setInt(p, &b.round, 1, "round")
		case fieldToken:
			var raw []byte
			var ok bool
			if raw, clean, ok, err = p.str(1, "token"); ok {
				b.token = p.text(raw, clean)
			}
		case fieldReports:
			err = p.reportList(b)
		default:
			err = p.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

// reportList parses the reports value at p.off (in depth 1).
func (p *jsonParser) reportList(b *wireBatch) error {
	switch p.data[p.off] {
	case '[':
	case 'n':
		b.reports, p.reports = nil, p.reports[:0]
		return p.literal("null")
	default:
		p.mistype("reports")
		return p.skip(1)
	}
	p.off++
	n := 0
	for first := true; ; first = false {
		done, err := p.element(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		if n == len(p.reports) {
			p.reports = append(p.reports, history.Report{})
		}
		switch p.data[p.off] {
		case '{':
			err = p.report(&p.reports[n])
		case 'n':
			err = p.literal("null") // leaves the element as it was
		default:
			p.mistype("a report")
			err = p.skip(2)
		}
		if err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		b.reports, p.reports = []history.Report{}, p.reports[:0]
		return nil
	}
	b.reports = p.reports[:n]
	return nil
}

// report parses one report object at p.off (nesting depth 3) into r.
func (p *jsonParser) report(r *history.Report) error {
	p.off++
	for first := true; ; first = false {
		key, clean, done, err := p.member(first)
		if err != nil || done {
			return err
		}
		switch reportField(p.word(key, clean)) {
		case fieldUser:
			err = setInt(p, &r.User, 3, "user")
		case fieldKind:
			var raw []byte
			var ok bool
			if raw, clean, ok, err = p.str(3, "kind"); ok {
				r.Kind = kindName(p.word(raw, clean))
			}
		case fieldValue:
			err = setInt(p, &r.Value, 3, "value")
		case fieldSeed:
			err = p.seed(&r.Seed)
		case fieldBits:
			err = p.payload(&r.Bits, "bits")
		case fieldPacked:
			err = p.payload(&r.Packed, "packed")
		case fieldNum:
			err = p.num(&r.Num)
		default:
			err = p.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// kindName interns a report kind to its constant name; an unknown one is
// copied, for the per-report decode to refuse.
func kindName(s []byte) string {
	switch string(s) {
	case "value":
		return "value"
	case "packed":
		return "packed"
	case "hash":
		return "hash"
	case "cohort":
		return "cohort"
	case "numeric":
		return "numeric"
	}
	return string(s)
}

// payload parses a bits or packed value at p.off (in depth 3) into f:
// base64 decodes into the arena; a JSON array of bytes decodes over f's
// elements, as encoding/json decodes into a slice; null clears f.
func (p *jsonParser) payload(f *[]byte, name string) error {
	switch p.data[p.off] {
	case '"':
		raw, clean, _, err := p.str(3, name)
		if err != nil {
			return err
		}
		s := p.word(raw, clean)
		dst := p.alloc(base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(dst, s)
		if err != nil {
			p.mistype(name)
			return nil
		}
		clear(dst[n:]) // encoding/json's decode buffer beyond the payload is zero
		if dst == nil {
			dst = []byte{}
		}
		*f = dst[:n]
		return nil
	case '[':
		return p.byteList(f, name)
	case 'n':
		*f = nil
		return p.literal("null")
	default:
		p.mistype(name)
		return p.skip(3)
	}
}

// byteList parses a JSON array of bytes at p.off (nesting depth 4) over
// f: an element within f's capacity that is null keeps the byte there.
func (p *jsonParser) byteList(f *[]byte, name string) error {
	p.off++
	cur, n := *f, 0
	for first := true; ; first = false {
		done, err := p.element(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		if n == cap(cur) {
			cur = append(cur[:n], 0)
		}
		cur = cur[:max(n+1, len(cur))]
		lit, ok, err := p.number(4, name)
		if err != nil {
			return err
		}
		if v, fits := parseUint(lit); ok && fits && v <= math.MaxUint8 {
			cur[n] = byte(v)
		} else if ok {
			p.mistype(name)
		}
		n++
	}
	if n == 0 {
		cur = []byte{}
	}
	*f = cur[:n]
	return nil
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

// setInt parses a signed integer field's value at p.off (in depth) into
// f. Null, and a mistyped value — a fraction, an exponent, a literal f
// cannot hold, anything but a number — leave f as it was.
func setInt[T int | int64](p *jsonParser, f *T, depth int, name string) error {
	lit, ok, err := p.number(depth, name)
	if !ok || err != nil {
		return err
	}
	if i, fits := parseInt(lit); fits && int64(T(i)) == i {
		*f = T(i)
	} else {
		p.mistype(name)
	}
	return nil
}

// seed parses a report's seed at p.off into f, as setInt does but within
// uint64: a minus sign, even on 0, is mistyped.
func (p *jsonParser) seed(f *uint64) error {
	lit, ok, err := p.number(3, "seed")
	if !ok || err != nil {
		return err
	}
	if v, fits := parseUint(lit); fits {
		*f = v
	} else {
		p.mistype("seed")
	}
	return nil
}

// num parses a report's num at p.off into f: any number a float64 holds,
// rounded to nearest; one beyond ±MaxFloat64 is mistyped.
func (p *jsonParser) num(f *float64) error {
	lit, ok, err := p.number(3, "num")
	if !ok || err != nil {
		return err
	}
	if x, err := strconv.ParseFloat(string(lit), 64); err == nil {
		*f = x
	} else {
		p.mistype("num")
	}
	return nil
}

// parseUint parses an unsigned integer literal; false when lit has a sign,
// fraction or exponent, or overflows uint64.
func parseUint(lit []byte) (uint64, bool) {
	var v uint64
	for _, c := range lit {
		if c < '0' || c > '9' || v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseInt parses a signed integer literal within int64.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := parseUint(lit)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// number parses a numeric field's value at p.off (in depth): the literal
// of a number, null (ok false), or a mistyped value, recorded and skipped.
func (p *jsonParser) number(depth int, name string) (lit []byte, ok bool, err error) {
	switch c := p.data[p.off]; {
	case c == '-' || c >= '0' && c <= '9':
		lit, err = p.scanNumber()
		return lit, err == nil, err
	case c == 'n':
		return nil, false, p.literal("null")
	default:
		p.mistype(name)
		return nil, false, p.skip(depth)
	}
}

// str parses a string field's value at p.off (in depth): its raw content
// and whether that is its value as it stands (clean; else see word and
// text), null (ok false), or a mistyped value, recorded and skipped.
func (p *jsonParser) str(depth int, name string) (raw []byte, clean, ok bool, err error) {
	switch p.data[p.off] {
	case '"':
		raw, clean, err = p.scanString()
		return raw, clean, err == nil, err
	case 'n':
		return nil, false, false, p.literal("null")
	default:
		p.mistype(name)
		return nil, false, false, p.skip(depth)
	}
}

// word returns the value of a string the parse reads and lets go — a key,
// a kind, base64 text: raw itself when clean, else decoded into the
// parser's one word buffer, valid until the next word.
func (p *jsonParser) word(raw []byte, clean bool) []byte {
	if clean {
		return raw
	}
	p.words = appendUnquoted(p.words[:0], raw)
	return p.words
}

// text returns the value of a string the batch keeps — the token: raw
// itself when clean, else decoded into the arena.
func (p *jsonParser) text(raw []byte, clean bool) []byte {
	if clean {
		return raw
	}
	// The value is at most 3 bytes per raw byte: an invalid byte becomes a
	// 3-byte U+FFFD, and no escape grows.
	dst := appendUnquoted(p.alloc(3 * len(raw))[:0], raw)
	p.arena = p.arena[:len(p.arena)-3*len(raw)+len(dst)] // give back what the value did not take
	return dst[:len(dst):len(dst)]
}

// member advances to an object's next member — first: just past its
// '{' — and returns the member's raw key and whether that is the key as it
// stands (see word), with p.off at its value, or done after the closing
// '}'.
func (p *jsonParser) member(first bool) (key []byte, clean, done bool, err error) {
	c, err := p.peek()
	if err != nil {
		return nil, false, false, err
	}
	if c == '}' {
		p.off++
		return nil, false, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, false, p.syntax("expected , or } after an object member")
		}
		p.off++
		if c, err = p.peek(); err != nil {
			return nil, false, false, err
		}
	}
	if c != '"' {
		return nil, false, false, p.syntax("expected an object key")
	}
	if key, clean, err = p.scanString(); err != nil {
		return nil, false, false, err
	}
	if c, err = p.peek(); err != nil {
		return nil, false, false, err
	}
	if c != ':' {
		return nil, false, false, p.syntax("expected : after an object key")
	}
	p.off++
	_, err = p.peek()
	return key, clean, false, err
}

// element advances to an array's next element — first: just past its
// '[' — leaving p.off at the value, or returns done after the closing ']'.
func (p *jsonParser) element(first bool) (done bool, err error) {
	c, err := p.peek()
	if err != nil {
		return false, err
	}
	if c == ']' && first {
		p.off++
		return true, nil
	}
	if !first {
		switch c {
		case ']':
			p.off++
			return true, nil
		case ',':
			p.off++
		default:
			return false, p.syntax("expected , or ] after an array element")
		}
	}
	_, err = p.peek()
	return false, err
}

// skip validates and passes over the value at p.off, whose container is
// depth deep.
func (p *jsonParser) skip(depth int) error {
	switch c := p.data[p.off]; {
	case c == '{' || c == '[':
		if depth++; depth > maxJSONDepth {
			return p.syntax("nesting too deep")
		}
		p.off++
		for first := true; ; first = false {
			var done bool
			var err error
			if c == '{' {
				_, _, done, err = p.member(first)
			} else {
				done, err = p.element(first)
			}
			if err != nil || done {
				return err
			}
			if err := p.skip(depth); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := p.scanString()
		return err
	case c == '-' || c >= '0' && c <= '9':
		_, err := p.scanNumber()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	default:
		return p.syntax("expected a value")
	}
}

// isJSONSpace reports RFC 8259 insignificant whitespace.
func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips whitespace and returns the next byte; the input ending there
// is a syntax error.
func (p *jsonParser) peek() (byte, error) {
	if p.off < len(p.data) && p.data[p.off] > ' ' { // no whitespace: the encoder's bodies
		return p.data[p.off], nil
	}
	return p.skipSpace()
}

// skipSpace is peek's loop over whitespace.
func (p *jsonParser) skipSpace() (byte, error) {
	for p.off < len(p.data) {
		if c := p.data[p.off]; !isJSONSpace(c) {
			return c, nil
		}
		p.off++
	}
	return 0, p.syntax("")
}

// literal passes over the literal word at p.off.
func (p *jsonParser) literal(word string) error {
	if rest := p.data[p.off:]; len(rest) >= len(word) && string(rest[:len(word)]) == word {
		p.off += len(word)
		return nil
	}
	return p.syntax("invalid literal")
}

// scanNumber passes over the number literal at p.off (RFC 8259 grammar)
// and returns it.
func (p *jsonParser) scanNumber() ([]byte, error) {
	data, start := p.data, p.off
	if data[p.off] == '-' {
		p.off++
	}
	if p.off < len(data) && data[p.off] == '0' {
		p.off++
	} else if !p.digits() {
		return nil, p.syntax("expected a digit")
	}
	if p.off < len(data) && data[p.off] == '.' {
		p.off++
		if !p.digits() {
			return nil, p.syntax("expected a digit")
		}
	}
	if p.off < len(data) && (data[p.off] == 'e' || data[p.off] == 'E') {
		p.off++
		if p.off < len(data) && (data[p.off] == '+' || data[p.off] == '-') {
			p.off++
		}
		if !p.digits() {
			return nil, p.syntax("expected a digit")
		}
	}
	return data[start:p.off], nil
}

// digits passes over a run of decimal digits, false when there is none.
func (p *jsonParser) digits() bool {
	start := p.off
	for p.off < len(p.data) && p.data[p.off]-'0' <= 9 {
		p.off++
	}
	return p.off > start
}

// plainStringByte marks the bytes a string holds as they are: printable
// ASCII other than the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString passes over the string literal at p.off and returns its raw
// content, and whether that is already its value: no escapes, valid UTF-8.
func (p *jsonParser) scanString() (raw []byte, clean bool, err error) {
	data := p.data
	start := p.off + 1
	i, escaped, ascii := start, false, true
	for {
		for i < len(data) && plainStringByte[data[i]] {
			i++
		}
		if i >= len(data) {
			p.off = i
			return nil, false, p.syntax("")
		}
		switch c := data[i]; {
		case c == '"':
			p.off = i + 1
			raw = data[start:i]
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			i++
			if i < len(data) && data[i] == 'u' {
				for j := 1; j <= 4; j++ {
					if i+j >= len(data) || !isHex(data[i+j]) {
						p.off = i + j
						return nil, false, p.syntax("invalid \\u escape")
					}
				}
				i += 5
				continue
			}
			if i >= len(data) || strings.IndexByte(`"\/bfnrt`, data[i]) < 0 {
				p.off = i
				return nil, false, p.syntax("invalid escape")
			}
			i++
		case c < 0x20:
			p.off = i
			return nil, false, p.syntax("control character in string")
		default: // a byte of a multi-byte sequence, valid or not
			ascii = false
			i++
		}
	}
}

func isHex(c byte) bool { return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' }

// hex4 reads the four hex digits of a \u escape at s[2:6]; -1 when s does
// not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the value of a scanned string's raw content as
// encoding/json decodes it: escapes and surrogate pairs decoded, lone
// surrogates and invalid UTF-8 become U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\':
			switch raw[i+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(raw[i:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // " \ /
				dst = append(dst, raw[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}
