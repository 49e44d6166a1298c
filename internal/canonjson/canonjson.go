// Package canonjson reads the canonical subset of JSON that this module's
// own encoders emit: objects with exact, lower-case ASCII keys, each seen
// once; strings of printable ASCII without escapes; plain integers; the
// literals true and false; no null, no floats, no exponents.
//
// A Reader never reports a syntax error. On the first byte outside the
// subset it declines: every later call returns a zero value, loops over
// containers end, and OK reports false. The caller then runs its
// encoding/json path over the same bytes, which accepts, decodes and
// rejects exactly what it always did. The subset is therefore a fast path
// and never a second grammar: anything it is unsure about (case-folded
// keys, escapes, duplicates, numbers with a fraction, trailing data) is
// left to encoding/json, whose exact behaviour on those inputs a hand
// reader would otherwise have to copy.
package canonjson

// maxDigits bounds an accepted integer: 18 decimal digits always fit an
// int64, so Int64 never has to detect overflow; longer numbers decline.
const maxDigits = 18

// Reader scans one document. The zero value is not usable; use NewReader.
type Reader struct {
	data     []byte
	pos      int
	declined bool
}

// NewReader returns a reader over data. The reader aliases data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// OK reports that everything read so far was inside the subset.
func (r *Reader) OK() bool { return !r.declined }

// Decline marks the document as outside the subset; callers use it for
// keys they do not know and values of the wrong shape.
func (r *Reader) Decline() {
	r.declined = true
	r.pos = len(r.data)
}

// Done reports that the document was one value inside the subset followed
// by nothing but whitespace.
func (r *Reader) Done() bool {
	r.space()
	if r.pos != len(r.data) {
		r.Decline()
	}
	return !r.declined
}

// Offset returns the position of the next unread byte: after Key, the
// first byte of the value; after a value, the byte past its end.
func (r *Reader) Offset() int { return r.pos }

// Once declines when bit i of *seen is already set (a duplicate key) and
// sets it otherwise.
func (r *Reader) Once(seen *uint64, i uint) {
	if *seen&(1<<i) != 0 {
		r.Decline()
	}
	*seen |= 1 << i
}

// Open consumes the opening delimiter c ('{' or '[') and reports whether
// a first element follows; an empty container is consumed whole.
func (r *Reader) Open(c byte) bool {
	if !r.expect(c) {
		return false
	}
	r.space()
	if r.pos < len(r.data) && r.data[r.pos] == closer(c) {
		r.pos++
		return false
	}
	return !r.declined
}

// Next consumes what follows an element of the container opened with c:
// true after a comma, false after the closing delimiter.
func (r *Reader) Next(c byte) bool {
	r.space()
	if r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ',':
			r.pos++
			return true
		case closer(c):
			r.pos++
			return false
		}
	}
	r.Decline()
	return false
}

// Key reads an object key, its colon and the whitespace up to the value.
// The bytes alias the input; a switch on string(key) compares them without
// copying.
func (r *Reader) Key() []byte {
	k := r.str()
	if !r.expect(':') {
		return nil
	}
	r.space()
	return k
}

// Str reads a string value.
func (r *Reader) Str() string { return string(r.str()) }

// Int64 reads an integer: an optional minus sign, then 0 or a digit run
// without a leading zero. "-0" declines.
func (r *Reader) Int64() int64 {
	r.space()
	neg := r.pos < len(r.data) && r.data[r.pos] == '-'
	if neg {
		r.pos++
	}
	start := r.pos
	var v int64
	for r.pos < len(r.data) && r.data[r.pos] >= '0' && r.data[r.pos] <= '9' {
		v = v*10 + int64(r.data[r.pos]-'0')
		r.pos++
	}
	n := r.pos - start
	if n == 0 || n > maxDigits || (n > 1 && r.data[start] == '0') || (neg && v == 0) {
		r.Decline()
		return 0
	}
	if neg {
		v = -v
	}
	return v
}

// Int reads an integer that fits an int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.Decline()
		return 0
	}
	return int(v)
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	r.space()
	rest := r.data[r.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.pos += 5
		return false
	}
	r.Decline()
	return false
}

// str reads a string of printable ASCII without escapes and returns its
// contents, aliasing the input.
func (r *Reader) str() []byte {
	if !r.expect('"') {
		return nil
	}
	start := r.pos
	for r.pos < len(r.data) {
		switch b := r.data[r.pos]; {
		case b == '"':
			r.pos++
			return r.data[start : r.pos-1]
		case b < 0x20 || b > 0x7e || b == '\\':
			r.Decline()
			return nil
		}
		r.pos++
	}
	r.Decline()
	return nil
}

// expect skips whitespace and consumes c, declining when it is absent.
func (r *Reader) expect(c byte) bool {
	r.space()
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	r.Decline()
	return false
}

// space skips JSON whitespace.
func (r *Reader) space() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

func closer(c byte) byte {
	if c == '{' {
		return '}'
	}
	return ']'
}
