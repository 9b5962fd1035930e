package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The tagged codec is the self-describing value encoding of the byte
// formats that carry SQL values without a schema: plan-fragment constants
// and aggregate bounds, and the client wire's query arguments and result
// rows. A value is a one-byte tag, then an int64 or float64 in big-endian
// order, a string or bytes with a uvarint length, or a bool byte; NULL is
// the tag alone. Unlike AppendValue's encoding it is not memcomparable.

// ErrMalformed marks a tagged value or length that does not decode.
var ErrMalformed = errors.New("table: malformed tagged value")

// Value tags.
const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagString
	tagBytes
	tagBool
)

// AppendTagged appends v (nil, int64, float64, string, []byte or bool) in
// the tagged encoding.
func AppendTagged(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int64:
		b = append(b, tagInt)
		return binary.BigEndian.AppendUint64(b, uint64(x)), nil
	case float64:
		b = append(b, tagFloat)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case []byte:
		b = append(b, tagBytes)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case bool:
		if x {
			return append(b, tagBool, 1), nil
		}
		return append(b, tagBool, 0), nil
	default:
		return nil, fmt.Errorf("%w: unsupported value type %T", ErrSchemaMismatch, v)
	}
}

// DecodeTagged decodes one value written by AppendTagged and returns the
// bytes after it. Decoded bytes never alias b.
func DecodeTagged(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrMalformed
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagInt, tagFloat:
		if len(b) < 8 {
			return nil, nil, ErrMalformed
		}
		u := binary.BigEndian.Uint64(b[:8])
		if tag == tagInt {
			return int64(u), b[8:], nil
		}
		return math.Float64frombits(u), b[8:], nil
	case tagString, tagBytes:
		n, b, err := DecodeLen(b)
		if err != nil || len(b) < n {
			return nil, nil, ErrMalformed
		}
		if tag == tagString {
			return string(b[:n]), b[n:], nil
		}
		return append([]byte(nil), b[:n]...), b[n:], nil
	case tagBool:
		if len(b) < 1 {
			return nil, nil, ErrMalformed
		}
		return b[0] != 0, b[1:], nil
	default:
		return nil, nil, fmt.Errorf("%w: value tag %#x", ErrMalformed, tag)
	}
}

// DecodeLen reads a uvarint length or count, rejecting values that do not
// fit a non-negative int32: a hostile uvarint must never reach make() as a
// huge or negative length. It does not check that the bytes remain.
func DecodeLen(b []byte) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > math.MaxInt32 {
		return 0, nil, ErrMalformed
	}
	return int(v), b[n:], nil
}
