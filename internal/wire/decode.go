package wire

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeRequest is the v1 envelope decoder: one pass over data, no
// reflection, no intermediate values. It accepts exactly the inputs
// encoding/json.Unmarshal accepts into a Request and leaves req as
// Unmarshal would, which is what keeps every FING1 log written before it
// replaying to the same world. The grammar (docs/API.md, "Envelope
// grammar"):
//
//   - keys match the field names case-insensitively, folded as
//     encoding/json folds them (so U+017F matches s and U+212A matches k),
//     after their escapes are decoded;
//   - unknown keys are skipped, but their values must be valid JSON, to
//     the same nesting limit encoding/json applies;
//   - a repeated key overwrites the earlier value; a repeated "tags"
//     decodes into the earlier slice, so a null element keeps what that
//     slice held at its index;
//   - null leaves a field as it was, except "tags", which it resets to
//     nil; "tags":[] is an empty, non-nil slice;
//   - integer fields take a JSON integer in the field's range: no
//     fraction, no exponent, no sign on unsigned fields;
//   - strings decode every escape, pair surrogates, and turn lone
//     surrogates and invalid UTF-8 into U+FFFD;
//   - whitespace may surround any token, nothing may follow the value,
//     and a top-level null decodes to the zero Request.
//
// The differential fuzz target FuzzParseRequestMatchesJSON holds the
// equivalence against encoding/json. Any error means CodeMalformed.
func decodeRequest(data []byte, req *Request) error {
	d := decoder{data: data}
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.envelope(req)
	case 'n':
		err = d.literal("null")
	default:
		err = d.fail("envelope is not a JSON object")
	}
	if err != nil {
		return err
	}
	d.space()
	if d.pos != len(d.data) {
		return d.fail("trailing data after envelope")
	}
	return nil
}

// maxDepth is encoding/json's nesting limit; the envelope object is
// depth 1.
const maxDepth = 10000

// decoder is a cursor over one envelope.
type decoder struct {
	data []byte
	pos  int
}

// decodeError is a syntax or type error at a byte offset.
type decodeError struct {
	off int
	msg string
}

func (e *decodeError) Error() string { return fmt.Sprintf("%s at byte %d", e.msg, e.off) }

func (d *decoder) fail(msg string) error { return &decodeError{off: d.pos, msg: msg} }

// peek returns the byte at the cursor, or 0 at the end (0 is never valid
// where peek is consulted).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) space() {
	i := d.pos
	for i < len(d.data) && (d.data[i] == ' ' || d.data[i] == '\t' || d.data[i] == '\n' || d.data[i] == '\r') {
		i++
	}
	d.pos = i
}

// field names a Request field; fieldNone is an unknown key.
type field uint8

const (
	fieldNone field = iota
	fieldV
	fieldID
	fieldOp
	fieldToken
	fieldTarget
	fieldPost
	fieldText
	fieldTags
	fieldUsername
	fieldPassword
	fieldCountry
	fieldASN
	fieldAPI
	fieldClient
)

// envelope decodes the object at the cursor into req.
func (d *decoder) envelope(req *Request) error {
	return d.members(1, func(f field) error { return d.field(req, f) })
}

// members walks the object at the cursor, calling value with the cursor
// on each member's value; value must consume it. depth is the object's
// nesting depth.
func (d *decoder) members(depth int, value func(field) error) error {
	if depth > maxDepth {
		return d.fail("exceeded max depth")
	}
	d.pos++ // '{'
	d.space()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.fail("expected object key")
		}
		f, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.fail("expected ':' after object key")
		}
		d.pos++
		d.space()
		if err := value(f); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}' after object member")
		}
	}
}

// field decodes the value at the cursor into req's field f.
func (d *decoder) field(req *Request, f field) error {
	if f == fieldNone {
		return d.skip(2)
	}
	if d.peek() == 'n' {
		if err := d.literal("null"); err != nil {
			return err
		}
		if f == fieldTags {
			req.Tags = nil
		}
		return nil
	}
	var err error
	switch f {
	case fieldV:
		var n int64
		n, err = d.signed()
		if err == nil && int64(int(n)) != n {
			err = d.fail("v overflows int")
		}
		req.V = int(n)
	case fieldID:
		req.ID, err = d.unsigned(math.MaxUint64)
	case fieldTarget:
		req.Target, err = d.unsigned(math.MaxUint64)
	case fieldPost:
		req.Post, err = d.unsigned(math.MaxUint64)
	case fieldASN:
		var n uint64
		n, err = d.unsigned(math.MaxUint32)
		req.ASN = uint32(n)
	case fieldOp:
		req.Op, err = d.op()
	case fieldToken:
		req.Token, err = d.text()
	case fieldText:
		req.Text, err = d.text()
	case fieldUsername:
		req.Username, err = d.text()
	case fieldPassword:
		req.Password, err = d.text()
	case fieldCountry:
		req.Country, err = d.text()
	case fieldAPI:
		req.API, err = d.text()
	case fieldClient:
		req.Client, err = d.text()
	case fieldTags:
		err = d.tags(&req.Tags)
	}
	return err
}

// key scans the object key at the cursor and resolves it to a field.
func (d *decoder) key() (field, error) {
	raw, _, err := d.scanString()
	if err != nil {
		return fieldNone, err
	}
	// Fold the decoded key as encoding/json does: ASCII a-z to upper case,
	// any other rune to the smallest rune of its case-folding orbit. Every
	// field name is ASCII and at most 8 bytes, so a longer fold or a
	// non-ASCII rune matches nothing.
	var buf [8]byte
	n := 0
	for i := 0; i < len(raw); {
		r, size := rune(raw[i]), 1
		if r == '\\' || r >= utf8.RuneSelf {
			r, size = unquoteRune(raw[i:])
		}
		i += size
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
		} else {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == len(buf) {
			return fieldNone, nil
		}
		buf[n] = byte(r)
		n++
	}
	switch string(buf[:n]) {
	case "V":
		return fieldV, nil
	case "ID":
		return fieldID, nil
	case "OP":
		return fieldOp, nil
	case "TOKEN":
		return fieldToken, nil
	case "TARGET":
		return fieldTarget, nil
	case "POST":
		return fieldPost, nil
	case "TEXT":
		return fieldText, nil
	case "TAGS":
		return fieldTags, nil
	case "USERNAME":
		return fieldUsername, nil
	case "PASSWORD":
		return fieldPassword, nil
	case "COUNTRY":
		return fieldCountry, nil
	case "ASN":
		return fieldASN, nil
	case "API":
		return fieldAPI, nil
	case "CLIENT":
		return fieldClient, nil
	}
	return fieldNone, nil
}

// foldRune returns the smallest rune of r's simple case-folding orbit,
// as encoding/json's key matching does.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// scanString scans the string literal at the cursor, validating it as
// JSON. It returns the bytes between the quotes and whether they are
// already the decoded value (no escapes, valid UTF-8).
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	d.pos++ // '"'
	start := d.pos
	escaped, high := false, false
	for {
		i := d.pos
		for i < len(d.data) && plainByte[d.data[i]] {
			i++
		}
		d.pos = i
		switch c := d.peek(); {
		case c == '"':
			raw = d.data[start:d.pos]
			d.pos++
			return raw, !escaped && (!high || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for range 4 {
					if !isHex(d.peek()) {
						return nil, false, d.fail("invalid \\u escape in string")
					}
					d.pos++
				}
			default:
				return nil, false, d.fail("invalid escape in string")
			}
		case c >= utf8.RuneSelf:
			high = true
			d.pos++
		case d.pos == len(d.data):
			return nil, false, d.fail("unterminated string")
		default:
			return nil, false, d.fail("control character in string")
		}
	}
}

// plainByte marks the bytes a string literal holds as themselves:
// printable ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 decodes the four hex digits after a `\u` at the start of s, or
// returns -1 if s does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquoteRune decodes the first rune of validated string contents s and
// returns it with the number of bytes it took. A surrogate pair of \u
// escapes is one rune; a lone surrogate and invalid UTF-8 (one byte at a
// time) are U+FFFD, as encoding/json decodes them.
func unquoteRune(s []byte) (rune, int) {
	c := s[0]
	if c >= utf8.RuneSelf {
		return utf8.DecodeRune(s)
	}
	if c != '\\' {
		return rune(c), 1
	}
	switch s[1] {
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(s)
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if dec := utf16.DecodeRune(r, hex4(s[6:])); dec != unicode.ReplacementChar {
			return dec, 12
		}
		return unicode.ReplacementChar, 6
	}
	return rune(s[1]), 2 // '"', '\\' or '/'
}

// text decodes the string literal at the cursor. It allocates once for
// a non-empty value and not at all for an empty one.
func (d *decoder) text() (string, error) {
	if d.peek() != '"' {
		return "", d.fail("expected string")
	}
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return string(raw), err
	}
	return unquote(raw), nil
}

// unquote decodes validated string contents that need escapes or UTF-8
// repair: one pass to size the result, one to write it.
func unquote(raw []byte) string {
	n := 0
	for i := 0; i < len(raw); {
		r, size := unquoteRune(raw[i:])
		n += utf8.RuneLen(r)
		i += size
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < len(raw); {
		r, size := unquoteRune(raw[i:])
		b.WriteRune(r)
		i += size
	}
	return b.String()
}

// op decodes the op string, interned to its Op constant when it names one.
func (d *decoder) op() (Op, error) {
	if d.peek() != '"' {
		return "", d.fail("expected string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return "", err
	}
	if !plain {
		return Op(unquote(raw)), nil
	}
	for _, op := range [...]Op{OpRegister, OpLogin, OpLike, OpFollow, OpUnfollow, OpComment, OpPost} {
		if string(raw) == string(op) {
			return op, nil
		}
	}
	return Op(raw), nil
}

// tags decodes a JSON array of strings into *tags the way encoding/json
// decodes into an existing slice: element i overwrites index i of the
// current backing array (so a null element keeps the value there), the
// result has the array's length, and [] is a fresh empty slice. One
// counting pass sizes the slice so it grows at most once.
func (d *decoder) tags(tags *[]string) error {
	if d.peek() != '[' {
		return d.fail("tags is not an array")
	}
	d.pos++
	start := d.pos
	n := 0
	if err := d.elements(func() error {
		n++
		if d.peek() == 'n' {
			return d.literal("null")
		}
		if d.peek() != '"' {
			return d.fail("tag is not a string")
		}
		_, _, err := d.scanString()
		return err
	}); err != nil {
		return err
	}
	if n == 0 {
		*tags = []string{}
		return nil
	}
	end := d.pos
	if n > cap(*tags) {
		grown := make([]string, n)
		copy(grown, (*tags)[:cap(*tags)])
		*tags = grown
	}
	t := (*tags)[:n]
	*tags = t
	d.pos = start
	i := 0
	err := d.elements(func() error {
		var err error
		if d.peek() == 'n' {
			d.pos += len("null")
		} else {
			t[i], err = d.text()
		}
		i++
		return err
	})
	d.pos = end
	return err
}

// elements walks the array whose '[' is just behind the cursor, calling
// value with the cursor on each element; value must consume it.
func (d *decoder) elements(value func() error) error {
	d.space()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := value(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case ']':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or ']' after array element")
		}
	}
}

// skip validates and steps over the JSON value at the cursor, at nesting
// depth depth if it is a container.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.members(depth, func(field) error { return d.skip(depth + 1) })
	case c == '[':
		if depth > maxDepth {
			return d.fail("exceeded max depth")
		}
		d.pos++
		return d.elements(func() error { return d.skip(depth + 1) })
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	}
	return d.fail("expected a JSON value")
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// number scans the JSON number at the cursor. It returns the digits of
// its integer part, without the sign, and whether the number is a plain
// integer (no fraction, no exponent).
func (d *decoder) number() (digits []byte, integer bool, err error) {
	if d.peek() == '-' {
		d.pos++
	}
	start := d.pos
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.fail("invalid number")
	}
	digits, integer = d.data[start:d.pos], true
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, false, d.fail("invalid number fraction")
		}
		integer = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, false, d.fail("invalid number exponent")
		}
		integer = false
	}
	return digits, integer, nil
}

// digits steps over a run of decimal digits and reports whether there
// was at least one.
func (d *decoder) digits() bool {
	i := d.pos
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	ok := i > d.pos
	d.pos = i
	return ok
}

// magnitude scans an integer at the cursor and returns its absolute
// value, failing past max.
func (d *decoder) magnitude(max uint64) (uint64, error) {
	digits, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, d.fail("number is not an integer")
	}
	var mag uint64
	for _, c := range digits {
		v := uint64(c - '0')
		if mag > (max-v)/10 {
			return 0, d.fail("number out of range")
		}
		mag = mag*10 + v
	}
	return mag, nil
}

// unsigned decodes an unsigned integer no larger than max.
func (d *decoder) unsigned(max uint64) (uint64, error) {
	if c := d.peek(); c < '0' || c > '9' {
		return 0, d.fail("expected an unsigned integer")
	}
	return d.magnitude(max)
}

// signed decodes a signed 64-bit integer.
func (d *decoder) signed() (int64, error) {
	neg := d.peek() == '-'
	mag, err := d.magnitude(1 << 63)
	switch {
	case err != nil:
		return 0, err
	case neg:
		return -int64(mag), nil // -(1<<63) wraps to itself, math.MinInt64
	case mag > math.MaxInt64:
		return 0, d.fail("number out of range")
	}
	return int64(mag), nil
}
