package keys

import (
	"bytes"
	"cmp"
	"math"
	"testing"
)

// FuzzKeysDecode checks the key codec against arbitrary input. key is
// decoded as untrusted bytes: Skip and every typed decoder walk it without
// panicking, never grow Remaining, and agree on where each element ends.
// The typed values, with key as a []byte value, must round-trip through
// one composite key, and each pair must encode in the order of its values
// (-0 just below +0; NaN has no numeric order, but sorts beyond the
// infinity of its sign). The seed corpus in testdata/fuzz/FuzzKeysDecode
// holds primary and customer_name index keys of TPC-C customer rows, with
// the rows' values as the typed arguments.
func FuzzKeysDecode(f *testing.F) {
	f.Add([]byte{tagString, 'a', 0x00, 0xFF, 0x00, 0x01, tagNull}, int64(-1), int64(1),
		math.Copysign(0, -1), 0.0, "a", "a\x00", false, true)
	f.Add([]byte{tagFloat, 0xFF}, int64(math.MinInt64), int64(math.MaxInt64),
		math.NaN(), math.Inf(-1), "", "\xff", true, true)
	f.Fuzz(func(t *testing.T, key []byte, i1, i2 int64, f1, f2 float64, s1, s2 string, b1, b2 bool) {
		walkUntrusted(t, key)
		roundTrip(t, key, i1, f1, s1, b1)
		roundTrip(t, []byte(s2), i2, f2, s2, b2)

		order(t, "int64", cmp.Compare(i1, i2), NewEncoder(9).Int64(i1).Bytes(), NewEncoder(9).Int64(i2).Bytes())
		order(t, "uint64", cmp.Compare(uint64(i1), uint64(i2)), encU(uint64(i1)), encU(uint64(i2)))
		order(t, "string", cmp.Compare(s1, s2), NewEncoder(0).String(s1).Bytes(), NewEncoder(0).String(s2).Bytes())
		order(t, "bytes", bytes.Compare(key, []byte(s2)), NewEncoder(0).RawBytes(key).Bytes(), NewEncoder(0).RawBytes([]byte(s2)).Bytes())
		order(t, "bool", cmp.Compare(b2i(b1), b2i(b2)), NewEncoder(2).Bool(b1).Bytes(), NewEncoder(2).Bool(b2).Bytes())
		if !math.IsNaN(f1) && !math.IsNaN(f2) {
			want := cmp.Compare(f1, f2)
			if f1 == 0 && f2 == 0 {
				want = cmp.Compare(b2i(!math.Signbit(f1)), b2i(!math.Signbit(f2)))
			}
			order(t, "float64", want, encF(f1), encF(f2))
		}
		for _, f := range []float64{f1, f2} {
			switch {
			case !math.IsNaN(f):
			case math.Signbit(f) && bytes.Compare(encF(f), encF(math.Inf(-1))) >= 0:
				t.Fatalf("NaN %#x with the sign bit set does not sort before -Inf", math.Float64bits(f))
			case !math.Signbit(f) && bytes.Compare(encF(f), encF(math.Inf(1))) <= 0:
				t.Fatalf("NaN %#x does not sort after +Inf", math.Float64bits(f))
			}
		}
	})
}

func encU(v uint64) []byte  { return NewEncoder(9).Uint64(v).Bytes() }
func encF(v float64) []byte { return NewEncoder(9).Float64(v).Bytes() }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// walkUntrusted steps Skip through b to its end or first error. At every
// element boundary it Skip reaches, each typed decoder that succeeds must
// end the element exactly where Skip does.
func walkUntrusted(t *testing.T, b []byte) {
	typed := []func(*Decoder) error{
		func(d *Decoder) error { _, err := d.Uint64(); return err },
		func(d *Decoder) error { _, err := d.Int64(); return err },
		func(d *Decoder) error { _, err := d.Float64(); return err },
		func(d *Decoder) error { _, err := d.Bool(); return err },
		func(d *Decoder) error { _, err := d.String(); return err },
		func(d *Decoder) error { _, err := d.RawBytes(); return err },
		func(d *Decoder) error {
			if !d.IsNull() {
				return ErrCorrupt
			}
			return nil
		},
	}
	d := NewDecoder(b)
	for d.Remaining() > 0 {
		at := d.buf
		err := d.Skip()
		if err == nil && d.Remaining() >= len(at) {
			t.Fatalf("Skip at %x left %d of %d bytes", at, d.Remaining(), len(at))
		}
		for i, dec := range typed {
			td := NewDecoder(at)
			if terr := dec(td); terr == nil {
				if err != nil || td.Remaining() != d.Remaining() {
					t.Fatalf("decoder %d ends the element at %x with %d bytes left; Skip: %d, %v", i, at, td.Remaining(), d.Remaining(), err)
				}
			} else if td.Remaining() > len(at) {
				t.Fatalf("decoder %d grew Remaining at %x", i, at)
			}
		}
		if err != nil {
			return
		}
	}
}

// roundTrip encodes one value of each type into a composite key and
// decodes it back.
func roundTrip(t *testing.T, raw []byte, i int64, f float64, s string, b bool) {
	e := NewEncoder(0).Int64(i).Uint64(uint64(i)).Float64(f).String(s).RawBytes(raw).Bool(b).Null()
	d := NewDecoder(e.Bytes())
	gi, err := d.Int64()
	if err != nil || gi != i {
		t.Fatalf("int64 %d: got %d, %v", i, gi, err)
	}
	gu, err := d.Uint64()
	if err != nil || gu != uint64(i) {
		t.Fatalf("uint64 %d: got %d, %v", uint64(i), gu, err)
	}
	gf, err := d.Float64()
	if err != nil || math.Float64bits(gf) != math.Float64bits(f) {
		t.Fatalf("float64 %#x: got %#x, %v", math.Float64bits(f), math.Float64bits(gf), err)
	}
	gs, err := d.String()
	if err != nil || gs != s {
		t.Fatalf("string %q: got %q, %v", s, gs, err)
	}
	gr, err := d.RawBytes()
	if err != nil || !bytes.Equal(gr, raw) {
		t.Fatalf("bytes %x: got %x, %v", raw, gr, err)
	}
	gb, err := d.Bool()
	if err != nil || gb != b {
		t.Fatalf("bool %v: got %v, %v", b, gb, err)
	}
	if !d.IsNull() || d.Remaining() != 0 {
		t.Fatalf("composite key ends with %d bytes after the values", d.Remaining())
	}
	n := 0
	for d.Reset(e.Bytes()); d.Remaining() > 0; n++ {
		if err := d.Skip(); err != nil {
			t.Fatalf("Skip over an encoded key: %v", err)
		}
	}
	if n != 7 {
		t.Fatalf("Skip found %d elements in a 7-element key", n)
	}
}

// order requires bytes.Compare of two encodings to match want, the
// comparison of their values.
func order(t *testing.T, kind string, want int, a, b []byte) {
	if got := bytes.Compare(a, b); got != want {
		t.Fatalf("%s: encodings %x and %x compare %d, values %d", kind, a, b, got, want)
	}
}
