package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"globaldb/internal/redo"
)

func TestCompressorsRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("redo record payload "), 100)
	for _, c := range []Compressor{Noop{}, LZ4{}} {
		enc, err := c.Compress(payload)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dec, err := c.Decompress(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(dec, payload) {
			t.Fatalf("%s: round trip mismatch", c.Name())
		}
	}
	// LZ4 must actually shrink repetitive redo traffic.
	enc, _ := LZ4{}.Compress(payload)
	if len(enc) >= len(payload)/2 {
		t.Fatalf("lz4 only got %d/%d bytes", len(enc), len(payload))
	}
}

func TestLZ4RoundTripProperty(t *testing.T) {
	f := func(b []byte, repeat uint8) bool {
		// Repeat the input so that matches occur, not only literals.
		b = bytes.Repeat(b, 1+int(repeat%8))
		enc, err := LZ4{}.Compress(b)
		if err != nil {
			return false
		}
		dec, err := LZ4{}.Decompress(enc)
		return err == nil && bytes.Equal(dec, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestLZ4RoundTripCases runs the encoder over inputs shaped to hit each
// branch of the block format.
func TestLZ4RoundTripCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]byte{
		"empty":               {},
		"64KB random":         randBytes(rng, 64<<10),
		"offset 1 run":        append(randBytes(rng, 20), bytes.Repeat([]byte{'x'}, 5000)...),
		"period 3":            bytes.Repeat([]byte("abc"), 1000),
		"literals, period 14": append(randBytes(rng, 300), bytes.Repeat([]byte("0123456789abcd"), 30)...),
	}
	for n := 1; n <= 12; n++ { // too short for any match: literals only
		cases[fmt.Sprintf("%d bytes", n)] = bytes.Repeat([]byte{'a'}, n)
	}
	for name, in := range cases {
		enc, err := LZ4{}.Compress(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := LZ4{}.Decompress(enc)
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
	}

	// Literal runs and matches on both sides of the 15 and 15+255 nibble
	// extension boundaries: lits random bytes, a match of ml bytes lits
	// back, and 16 trailing literals must encode as exactly two sequences.
	for _, lits := range []int{14, 15, 16, 269, 270, 271} {
		for _, ml := range []int{4 + 14, 4 + 15, 4 + 16, 4 + 269, 4 + 270, 4 + 271} {
			in := randBytes(rng, lits)
			for len(in) < lits+ml {
				in = append(in, in[len(in)-lits])
			}
			in = append(in, randBytes(rng, 16)...)
			enc, _ := LZ4{}.Compress(in)
			dec, err := LZ4{}.Decompress(enc)
			if err != nil || !bytes.Equal(dec, in) {
				t.Fatalf("lits=%d ml=%d: round trip failed: %v", lits, ml, err)
			}
			want := uvarintSize(len(in)) + 1 + extBytes(lits) + lits + 2 + extBytes(ml-lz4MinMatch) + 1 + extBytes(16) + 16
			if len(enc) != want {
				t.Fatalf("lits=%d ml=%d: %d encoded bytes, want %d", lits, ml, len(enc), want)
			}
		}
	}

	// A match exactly 65 535 bytes back is the farthest the format can
	// reach; one byte farther must go out as literals (and still decode).
	far := func(dist int) []byte {
		chunk := randBytes(rng, 1000)
		in := make([]byte, dist+len(chunk)+16)
		copy(in, chunk)
		copy(in[dist:], chunk)
		return in
	}
	var sizes [2]int
	for i, dist := range []int{lz4MaxOffset, lz4MaxOffset + 1} {
		in := far(dist)
		enc, _ := LZ4{}.Compress(in)
		dec, err := LZ4{}.Decompress(enc)
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("distance %d: round trip failed: %v", dist, err)
		}
		sizes[i] = len(enc)
	}
	if sizes[0]+900 > sizes[1] {
		t.Fatalf("a 1000-byte repeat at offset 65535 was not matched: %d vs %d encoded bytes", sizes[0], sizes[1])
	}
}

// lz4Seq is one hand-built sequence: lits random literals, then a match of
// ml bytes off bytes back (ml == 0: the final, literals-only sequence).
type lz4Seq struct{ lits, off, ml int }

func uvarintSize(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

func extBytes(n int) int {
	if n < 15 {
		return 0
	}
	return (n-15)/255 + 1
}

// TestLZ4DecodesHandBuiltBlocks decodes blocks written sequence by sequence,
// checking each sequence's length on the wire against the format: a nibble
// of 15 is followed by 255s and a remainder byte.
func TestLZ4DecodesHandBuiltBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var cases [][]lz4Seq
	for _, lits := range []int{0, 1, 14, 15, 16, 269, 270, 271, 600} {
		for _, ml := range []int{4, 18, 19, 20, 273, 274, 275, 1000} {
			cases = append(cases, []lz4Seq{{lits + 8, 8, ml}, {lits, 1, ml}, {5, 0, 0}})
		}
	}
	cases = append(cases,
		[]lz4Seq{{1, 1, 65535}, {5, 0, 0}},                                 // offset 1: overlapping copy
		[]lz4Seq{{7, 3, 100}, {5, 0, 0}},                                   // overlapping, period 3
		[]lz4Seq{{lz4MaxOffset, lz4MaxOffset, 300}, {5, 0, 0}},             // farthest offset
		[]lz4Seq{{lz4MaxOffset + 10, lz4MaxOffset, 4}, {0, 0, 0}},          // empty final run
		[]lz4Seq{{0, 0, 0}},                                                // empty input
		[]lz4Seq{{12, 0, 0}},                                               // literals only
		[]lz4Seq{{20, 20, 4}, {0, 4, 19}, {0, 1, 15 + 255 + 4}, {3, 0, 0}}, // match after match
	)
	for _, seqs := range cases {
		var block, want []byte
		for _, s := range seqs {
			lits := randBytes(rng, s.lits)
			before := len(block)
			block = appendLZ4Sequence(block, lits, s.off, s.ml)
			wireLen := 1 + extBytes(s.lits) + s.lits
			if s.ml > 0 {
				wireLen += 2 + extBytes(s.ml-lz4MinMatch)
			}
			if got := len(block) - before; got != wireLen {
				t.Fatalf("%+v: sequence takes %d bytes, want %d", s, got, wireLen)
			}
			want = append(want, lits...)
			for i := 0; i < s.ml; i++ {
				want = append(want, want[len(want)-s.off])
			}
		}
		enc := append(binary.AppendUvarint(nil, uint64(len(want))), block...)
		got, err := LZ4{}.Decompress(enc)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: decode failed: %v", seqs, err)
		}
	}
}

// TestLZ4RejectsCorrupt: bytes from a peer that are not a block this codec
// could have written return an error, never a panic or a huge allocation.
func TestLZ4RejectsCorrupt(t *testing.T) {
	valid, _ := LZ4{}.Compress(bytes.Repeat([]byte("redo record payload "), 20))
	raw, k := binary.Uvarint(valid)
	withRaw := func(n uint64) []byte {
		return append(binary.AppendUvarint(nil, n), valid[k:]...)
	}
	block := func(raw int, b ...byte) []byte { return append(binary.AppendUvarint(nil, uint64(raw)), b...) }
	cases := map[string][]byte{
		"empty input":                 {},
		"bad raw length varint":       bytes.Repeat([]byte{0xff}, 11),
		"no sequence":                 block(0),
		"truncated literal":           block(10, 0xa0, 1, 2, 3, 4, 5),
		"truncated literal extension": block(20, 0xf0),
		"truncated offset":            block(8, 0x40, 1, 2, 3, 4, 1),
		"offset 0":                    block(8, 0x40, 1, 2, 3, 4, 0, 0, 0),
		"offset past the output":      block(8, 0x40, 1, 2, 3, 4, 5, 0, 0),
		"truncated match extension":   block(30, 0x4f, 1, 2, 3, 4, 1, 0),
		"match but no final sequence": block(8, 0x40, 1, 2, 3, 4, 4, 0),
		"raw length too small":        withRaw(raw - 1),
		"raw length too large":        withRaw(raw + 1),
		"raw length impossible":       withRaw(uint64(len(valid)-k)*lz4MaxExpansion + 1),
		"raw length 2^62":             withRaw(1 << 62),
	}
	for name, in := range cases {
		if out, err := (LZ4{}).Decompress(in); err == nil {
			t.Errorf("%s: decoded %d bytes, want an error", name, len(out))
		} else if name != "empty input" && !errors.Is(err, errLZ4Corrupt) {
			t.Errorf("%s: %v does not wrap errLZ4Corrupt", name, err)
		}
	}
}

// TestLZ4DecompressAllocatesOnce: a decode makes exactly one allocation,
// the declared raw length, and refuses an impossible length before it.
func TestLZ4DecompressAllocatesOnce(t *testing.T) {
	raw := redo.Marshal(buildWorkload(4, 12, 64))
	enc, _ := LZ4{}.Compress(raw)
	var out []byte
	if n := testing.AllocsPerRun(50, func() { out, _ = LZ4{}.Decompress(enc) }); n != 1 {
		t.Fatalf("Decompress made %v allocations, want 1", n)
	}
	if len(out) != len(raw) || cap(out) != len(raw) {
		t.Fatalf("decoded len %d cap %d, want %d", len(out), cap(out), len(raw))
	}
	_, k := binary.Uvarint(enc)
	huge := append(binary.AppendUvarint(nil, 1<<40), enc[k:]...)
	var err error
	if n := allocated(func() { _, err = LZ4{}.Decompress(huge) }); err == nil || n > fuzzAllocSlack {
		t.Fatalf("a 1 TB raw length from a few KB: err=%v after allocating %d bytes", err, n)
	}
}

// fuzzAllocSlack covers error values and allocator rounding in the
// FuzzBatchDecode allocation bounds.
const fuzzAllocSlack = 64 << 10

// allocated reports the bytes fn allocates. runtime.ReadMemStats flushes
// every P's cache, so the count is exact; runtime/metrics is cheaper but
// counts small objects a span at a time.
func allocated(fn func()) uint64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fn()
	runtime.ReadMemStats(&ms1)
	return ms1.TotalAlloc - ms0.TotalAlloc
}

// FuzzBatchDecode feeds arbitrary bytes through what a replica's endpoint
// does with a compressed batch: LZ4.Decompress, then redo.Unmarshal. Neither
// may panic or allocate more than the input can justify, and whatever
// decodes must re-encode and decode to the same thing. The seed corpus in
// testdata/fuzz/FuzzBatchDecode holds a heartbeat, a TPC-C New-Order commit
// and a 20-row UPDATE.
func FuzzBatchDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw []byte
		var err error
		if n := allocated(func() { raw, err = LZ4{}.Decompress(data) }); n > lz4MaxExpansion*uint64(len(data))+fuzzAllocSlack {
			t.Fatalf("Decompress of %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		enc, err := LZ4{}.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := (LZ4{}).Decompress(enc); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("re-compressed batch does not round-trip: %v", err)
		}

		var recs []redo.Record
		// A frame is at least 14 bytes and decodes to an 80-byte Record plus
		// copies of its key and value; slice growth at most doubles that.
		if n := allocated(func() { recs, err = redo.Unmarshal(raw) }); n > 64*uint64(len(raw))+fuzzAllocSlack {
			t.Fatalf("Unmarshal of %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		again, err := redo.Unmarshal(redo.Marshal(recs))
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-marshaled records do not round-trip: %v", err)
		}
	})
}
