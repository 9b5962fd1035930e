// Package keys implements order-preserving ("memcomparable") key encoding.
//
// Data nodes store rows and index entries in B-trees keyed by byte slices;
// bytes.Compare over encoded keys must equal the natural composite ordering
// of (tableID, column values...). This is the same trick TiDB, CockroachDB
// and FoundationDB use so range scans over a prefix visit rows in primary
// key order.
package keys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Tag bytes prefix every encoded element so heterogeneous tuples still sort
// deterministically and decoding is self-describing.
const (
	tagNull   byte = 0x01
	tagInt    byte = 0x03
	tagFloat  byte = 0x05
	tagString byte = 0x07
	tagBytes  byte = 0x08
	tagBool   byte = 0x09
)

var (
	// ErrCorrupt is returned when decoding malformed key bytes.
	ErrCorrupt = errors.New("keys: corrupt encoding")
)

// Encoder builds a composite key. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-allocated for n bytes.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded key. The slice aliases the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends an unsigned integer; bigger values sort later.
func (e *Encoder) Uint64(v uint64) *Encoder {
	e.buf = append(e.buf, tagInt)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Int64 appends a signed integer; the sign bit is flipped so negative values
// sort before positive ones under unsigned byte comparison.
func (e *Encoder) Int64(v int64) *Encoder {
	return e.Uint64(uint64(v) ^ (1 << 63))
}

// Float64 appends a float with total ordering (-Inf < ... < -0 < +0 < ... <
// +Inf). -0 and +0 encode distinctly, -0 just below +0; a NaN sorts beyond
// the infinity of its sign. IEEE 754 bits order correctly once negative
// numbers have all bits flipped and positive ones have the sign bit set.
func (e *Encoder) Float64(v float64) *Encoder {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	e.buf = append(e.buf, tagFloat)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Bool appends a boolean; false sorts before true.
func (e *Encoder) Bool(v bool) *Encoder {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, tagBool, b)
	return e
}

// String appends a string with escape-based termination so that "a" sorts
// before "ab" and no string is a raw prefix of another's encoding.
func (e *Encoder) String(s string) *Encoder {
	e.buf = append(e.buf, tagString)
	e.appendEscapedString(s)
	return e
}

// RawBytes appends an arbitrary byte slice with the same escaping as String.
func (e *Encoder) RawBytes(b []byte) *Encoder {
	e.buf = append(e.buf, tagBytes)
	e.appendEscaped(b)
	return e
}

// Null appends a NULL marker, which sorts before every other value.
func (e *Encoder) Null() *Encoder {
	e.buf = append(e.buf, tagNull)
	return e
}

// AppendRaw appends bytes that are already in encoded form — e.g. a table
// key prefix produced by another Encoder — without tagging or escaping.
func (e *Encoder) AppendRaw(b []byte) *Encoder {
	e.buf = append(e.buf, b...)
	return e
}

// appendEscaped writes b with 0x00 bytes escaped as 0x00 0xFF and a 0x00 0x01
// terminator. Under bytewise comparison this preserves ordering and makes
// the terminator sort before any continuation byte.
func (e *Encoder) appendEscaped(b []byte) {
	for _, c := range b {
		if c == 0x00 {
			e.buf = append(e.buf, 0x00, 0xFF)
		} else {
			e.buf = append(e.buf, c)
		}
	}
	e.buf = append(e.buf, 0x00, 0x01)
}

// appendEscapedString is appendEscaped for strings, skipping the []byte
// conversion (and its allocation) on the encode hot path.
func (e *Encoder) appendEscapedString(s string) {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			e.buf = append(e.buf, 0x00, 0xFF)
		} else {
			e.buf = append(e.buf, s[i])
		}
	}
	e.buf = append(e.buf, 0x00, 0x01)
}

// Decoder reads back a composite key produced by Encoder.
type Decoder struct {
	buf []byte
}

// NewDecoder returns a decoder over the encoded key b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset points the decoder at a new encoded key, allowing one decoder
// (often stack-allocated) to decode many values without reallocating.
func (d *Decoder) Reset(b []byte) { d.buf = b }

// Remaining reports how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) }

func (d *Decoder) expect(tag byte) error {
	if len(d.buf) == 0 || d.buf[0] != tag {
		return fmt.Errorf("%w: want tag %#x", ErrCorrupt, tag)
	}
	d.buf = d.buf[1:]
	return nil
}

// Uint64 decodes an unsigned integer element.
func (d *Decoder) Uint64() (uint64, error) {
	if err := d.expect(tagInt); err != nil {
		return 0, err
	}
	if len(d.buf) < 8 {
		return 0, ErrCorrupt
	}
	v := binary.BigEndian.Uint64(d.buf[:8])
	d.buf = d.buf[8:]
	return v, nil
}

// Int64 decodes a signed integer element.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	if err != nil {
		return 0, err
	}
	return int64(v ^ (1 << 63)), nil
}

// Float64 decodes a float element.
func (d *Decoder) Float64() (float64, error) {
	if err := d.expect(tagFloat); err != nil {
		return 0, err
	}
	if len(d.buf) < 8 {
		return 0, ErrCorrupt
	}
	bits := binary.BigEndian.Uint64(d.buf[:8])
	d.buf = d.buf[8:]
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), nil
}

// Bool decodes a boolean element.
func (d *Decoder) Bool() (bool, error) {
	if err := d.expect(tagBool); err != nil {
		return false, err
	}
	if len(d.buf) < 1 {
		return false, ErrCorrupt
	}
	v := d.buf[0] != 0
	d.buf = d.buf[1:]
	return v, nil
}

// String decodes a string element.
func (d *Decoder) String() (string, error) {
	if err := d.expect(tagString); err != nil {
		return "", err
	}
	if seg, rest, ok := fastSegment(d.buf); ok {
		d.buf = rest
		return string(seg), nil
	}
	b, err := d.unescape()
	return string(b), err
}

// RawBytes decodes a bytes element. The result never aliases the encoded
// input.
func (d *Decoder) RawBytes() ([]byte, error) {
	if err := d.expect(tagBytes); err != nil {
		return nil, err
	}
	if seg, rest, ok := fastSegment(d.buf); ok {
		d.buf = rest
		return bytes.Clone(seg), nil
	}
	return d.unescape()
}

// fastSegment recognizes the common escape-free case: the element's content
// runs up to the first 0x00, which starts the 0x00 0x01 terminator. It
// returns the content (aliasing b) and the remaining buffer. ok is false
// when the content contains escaped bytes (or is malformed), in which case
// the caller falls back to the allocating unescape walk.
func fastSegment(b []byte) (seg, rest []byte, ok bool) {
	i := bytes.IndexByte(b, 0x00)
	if i >= 0 && i+1 < len(b) && b[i+1] == 0x01 {
		return b[:i], b[i+2:], true
	}
	return nil, nil, false
}

// Skip advances past the next element, whatever its type, without
// materializing it — the no-allocation path for walking encoded rows whose
// current column the caller does not need (boxing an int or copying a
// string costs a heap object each; skipping costs none).
func (d *Decoder) Skip() error {
	if len(d.buf) == 0 {
		return ErrCorrupt
	}
	switch d.buf[0] {
	case tagNull:
		d.buf = d.buf[1:]
	case tagInt, tagFloat:
		if len(d.buf) < 9 {
			return ErrCorrupt
		}
		d.buf = d.buf[9:]
	case tagBool:
		if len(d.buf) < 2 {
			return ErrCorrupt
		}
		d.buf = d.buf[2:]
	case tagString, tagBytes:
		b := d.buf[1:]
		for i := 0; i < len(b); i++ {
			if b[i] != 0x00 {
				continue
			}
			if i+1 >= len(b) {
				return ErrCorrupt
			}
			switch b[i+1] {
			case 0xFF:
				i++ // escaped 0x00, continue
			case 0x01:
				d.buf = b[i+2:]
				return nil
			default:
				return ErrCorrupt
			}
		}
		return ErrCorrupt
	default:
		return fmt.Errorf("%w: unknown tag %#x", ErrCorrupt, d.buf[0])
	}
	return nil
}

// IsNull consumes a NULL marker if one is next and reports whether it did.
func (d *Decoder) IsNull() bool {
	if len(d.buf) > 0 && d.buf[0] == tagNull {
		d.buf = d.buf[1:]
		return true
	}
	return false
}

func (d *Decoder) unescape() ([]byte, error) {
	var out []byte
	b := d.buf
	for i := 0; i < len(b); i++ {
		if b[i] != 0x00 {
			out = append(out, b[i])
			continue
		}
		if i+1 >= len(b) {
			return nil, ErrCorrupt
		}
		switch b[i+1] {
		case 0xFF:
			out = append(out, 0x00)
			i++
		case 0x01:
			d.buf = b[i+2:]
			return out, nil
		default:
			return nil, ErrCorrupt
		}
	}
	return nil, ErrCorrupt
}

// PrefixEnd returns the first key that does not have prefix p, suitable as an
// exclusive upper bound for a prefix range scan. It returns nil when p is
// all 0xFF bytes (scan to the end of the keyspace).
func PrefixEnd(p []byte) []byte {
	end := bytes.Clone(p)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// Compare is bytes.Compare, re-exported so callers of this package do not
// also need to import bytes just for key comparison.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }
