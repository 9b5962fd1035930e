package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Compressor compresses redo batches before they cross the WAN. GlobalDB
// ships LZ4 blocks, as the paper does; Noop is the uncompressed baseline.
type Compressor interface {
	// Name identifies the codec in stats and logs.
	Name() string
	// Compress returns the encoded form of b.
	Compress(b []byte) ([]byte, error)
	// Decompress inverts Compress.
	Decompress(b []byte) ([]byte, error)
}

// Noop is the identity compressor (the baseline configuration).
type Noop struct{}

// Name implements Compressor.
func (Noop) Name() string { return "none" }

// Compress implements Compressor.
func (Noop) Compress(b []byte) ([]byte, error) { return b, nil }

// Decompress implements Compressor.
func (Noop) Decompress(b []byte) ([]byte, error) { return b, nil }

// LZ4 is the codec that ships redo. An encoded batch is the raw length as a
// uvarint followed by one block in the standard LZ4 block format: sequences
// of a token (literal-length and match-length nibbles), the literal-length
// extension, the literals, a 2-byte little-endian offset and the
// match-length extension, ending in a literals-only sequence.
//
// Compress is a greedy single-pass match finder over a 4096-entry hash table
// of 4-byte prefixes. It trades some ratio against DEFLATE for a fraction of
// the CPU, which is the trade the paper makes: the batches the cluster ships
// are a few hundred bytes to a few kilobytes, where DEFLATE's per-call
// Huffman and window set-up dominate.
type LZ4 struct{}

// Flate is the name the DEFLATE codec had; it is now LZ4.
//
// Deprecated: use LZ4. Kept so existing callers that name the shipping
// codec keep timing the one production runs.
type Flate = LZ4

// LZ4 block-format constants.
const (
	lz4MinMatch = 4
	// lz4LastLiterals: the last five bytes of a block are always literals.
	lz4LastLiterals = 5
	// lz4MFLimit: the last match starts at least 12 bytes before the end.
	lz4MFLimit   = 12
	lz4MaxOffset = 1<<16 - 1
	// lz4MaxExpansion bounds output per input byte: each byte of a length
	// extension adds at most 255 bytes, and every other byte adds less.
	lz4MaxExpansion = 255

	lz4HashLog = 12
)

var errLZ4Corrupt = errors.New("repl: corrupt lz4 block")

// Name implements Compressor.
func (LZ4) Name() string { return "lz4" }

// Compress implements Compressor. It allocates once, the worst-case encoded
// size, and never fails.
func (LZ4) Compress(src []byte) ([]byte, error) {
	n := len(src)
	dst := make([]byte, 0, binary.MaxVarintLen64+n+n/255+16)
	dst = binary.AppendUvarint(dst, uint64(n))
	anchor := 0
	if n > lz4MFLimit {
		var table [1 << lz4HashLog]int32 // position of the last 4-byte prefix per hash
		ipLimit := n - lz4MFLimit        // the last position a match may start
		matchLimit := n - lz4LastLiterals
		table[lz4Hash(src, 0)] = 0
		ip := 1
		for ip <= ipLimit {
			h := lz4Hash(src, ip)
			ref := int(table[h])
			table[h] = int32(ip)
			if ip-ref > lz4MaxOffset || load32(src, ref) != load32(src, ip) {
				// Step faster through input that keeps missing, as LZ4 does.
				ip += 1 + (ip-anchor)>>6
				continue
			}
			for ip > anchor && ref > 0 && src[ip-1] == src[ref-1] {
				ip, ref = ip-1, ref-1
			}
			ml := lz4MinMatch
			for ip+ml < matchLimit && src[ip+ml] == src[ref+ml] {
				ml++
			}
			dst = appendLZ4Sequence(dst, src[anchor:ip], ip-ref, ml)
			ip += ml
			anchor = ip
			if ip <= ipLimit {
				table[lz4Hash(src, ip-2)] = int32(ip - 2)
			}
		}
	}
	return appendLZ4Sequence(dst, src[anchor:], 0, 0), nil
}

// appendLZ4Sequence appends one sequence: lits, then a match of length ml at
// distance off. ml == 0 writes the block's final, literals-only sequence.
func appendLZ4Sequence(dst, lits []byte, off, ml int) []byte {
	token := byte(min(len(lits), 15)) << 4
	if ml > 0 {
		token |= byte(min(ml-lz4MinMatch, 15))
	}
	dst = append(dst, token)
	if len(lits) >= 15 {
		dst = appendLZ4Length(dst, len(lits)-15)
	}
	dst = append(dst, lits...)
	if ml == 0 {
		return dst
	}
	dst = append(dst, byte(off), byte(off>>8))
	if ml-lz4MinMatch >= 15 {
		dst = appendLZ4Length(dst, ml-lz4MinMatch-15)
	}
	return dst
}

// appendLZ4Length writes a length extension: 255s, then the remainder.
func appendLZ4Length(dst []byte, n int) []byte {
	for ; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func lz4Hash(b []byte, i int) uint32 {
	return load32(b, i) * 2654435761 >> (32 - lz4HashLog)
}

// Decompress implements Compressor. It checks the declared raw length
// against what the block could possibly encode before allocating, then
// makes one allocation of exactly that length.
func (LZ4) Decompress(b []byte) ([]byte, error) {
	raw, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad raw length", errLZ4Corrupt)
	}
	src := b[k:]
	if raw > uint64(len(src))*lz4MaxExpansion {
		return nil, fmt.Errorf("%w: raw length %d from a %d-byte block", errLZ4Corrupt, raw, len(src))
	}
	out := make([]byte, raw)
	d, i := 0, 0
	for {
		if i >= len(src) {
			return nil, fmt.Errorf("%w: missing final sequence", errLZ4Corrupt)
		}
		token := src[i]
		i++
		lits, ok := readLZ4Length(src, &i, int(token>>4))
		if !ok || lits > len(src)-i || lits > len(out)-d {
			return nil, fmt.Errorf("%w: literal run overflows", errLZ4Corrupt)
		}
		d += copy(out[d:], src[i:i+lits])
		i += lits
		if i == len(src) {
			break
		}
		if len(src)-i < 2 {
			return nil, fmt.Errorf("%w: truncated offset", errLZ4Corrupt)
		}
		off := int(src[i]) | int(src[i+1])<<8
		i += 2
		if off == 0 || off > d {
			return nil, fmt.Errorf("%w: offset %d at output %d", errLZ4Corrupt, off, d)
		}
		ml, ok := readLZ4Length(src, &i, int(token&15))
		ml += lz4MinMatch
		if !ok || ml > len(out)-d {
			return nil, fmt.Errorf("%w: match overflows", errLZ4Corrupt)
		}
		// An overlapping match (off < ml) repeats the last off bytes; copying
		// from a fixed start doubles the copied span each round.
		start, end := d-off, d+ml
		for d < end {
			d += copy(out[d:end], out[start:d])
		}
	}
	if d != len(out) {
		return nil, fmt.Errorf("%w: %d of %d bytes decoded", errLZ4Corrupt, d, len(out))
	}
	return out, nil
}

// readLZ4Length completes a token nibble with its extension bytes, reading
// from src at *i. It reports false when src ends inside the extension.
func readLZ4Length(src []byte, i *int, n int) (int, bool) {
	if n != 15 {
		return n, true
	}
	for {
		if *i >= len(src) {
			return 0, false
		}
		c := src[*i]
		*i++
		n += int(c)
		if c != 255 {
			return n, true
		}
	}
}
