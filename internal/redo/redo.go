// Package redo implements GlobalDB's redo (write-ahead) log.
//
// Primary data nodes append a record for every heap mutation plus the
// transaction-control records the replication protocol of Secs. II-A and
// IV-A relies on: PENDING COMMIT (written before the commit timestamp is
// fetched), COMMIT/ABORT, the two-phase-commit PREPARE and COMMIT/ABORT
// PREPARED pair, DDL barriers, and heartbeats that advance idle replicas.
//
// Records are assigned contiguous LSNs and framed once, when the log appends
// them: the log holds those frames, the WAL writes them to disk, and
// shippers tail the log and send byte ranges of it to replicas, LZ4-
// compressed or as they are, so every copy of the stream is the same bytes.
package redo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"

	"globaldb/internal/ts"
)

// Type identifies a redo record.
type Type uint8

// Record types.
const (
	// TypeHeapInsert carries a new key/value pair written by Txn.
	TypeHeapInsert Type = iota + 1
	// TypeHeapUpdate carries a replacement value for Key written by Txn.
	TypeHeapUpdate
	// TypeHeapDelete carries a deletion of Key by Txn.
	TypeHeapDelete
	// TypePendingCommit marks that Txn is about to fetch its commit
	// timestamp; replicas lock Txn's tuples until resolution (Sec. IV-A).
	TypePendingCommit
	// TypeCommit commits Txn at TS.
	TypeCommit
	// TypeAbort aborts Txn.
	TypeAbort
	// TypePrepare marks Txn prepared under two-phase commit.
	TypePrepare
	// TypeCommitPrepared commits a prepared Txn at TS.
	TypeCommitPrepared
	// TypeAbortPrepared aborts a prepared Txn.
	TypeAbortPrepared
	// TypeDDL carries a catalog mutation committed at TS; Key/Value hold
	// the encoded catalog change.
	TypeDDL
	// TypeHeartbeat advances the replica's max commit timestamp on shards
	// that receive no transactions (Sec. IV-A).
	TypeHeartbeat
)

func (t Type) String() string {
	switch t {
	case TypeHeapInsert:
		return "INSERT"
	case TypeHeapUpdate:
		return "UPDATE"
	case TypeHeapDelete:
		return "DELETE"
	case TypePendingCommit:
		return "PENDING_COMMIT"
	case TypeCommit:
		return "COMMIT"
	case TypeAbort:
		return "ABORT"
	case TypePrepare:
		return "PREPARE"
	case TypeCommitPrepared:
		return "COMMIT_PREPARED"
	case TypeAbortPrepared:
		return "ABORT_PREPARED"
	case TypeDDL:
		return "DDL"
	case TypeHeartbeat:
		return "HEARTBEAT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one redo log entry.
type Record struct {
	LSN   uint64
	Type  Type
	Txn   uint64
	TS    ts.Timestamp
	Key   []byte
	Value []byte
}

func (r Record) String() string {
	return fmt.Sprintf("lsn=%d %s txn=%d ts=%v key=%q", r.LSN, r.Type, r.Txn, r.TS, r.Key)
}

// Codec errors.
var (
	// ErrCorrupt means a frame failed its CRC or is structurally invalid.
	ErrCorrupt = errors.New("redo: corrupt record frame")
	// ErrTruncated means the log no longer retains the requested LSN.
	ErrTruncated = errors.New("redo: LSN already truncated")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord encodes r onto buf as a length-prefixed, CRC-protected frame
// and returns the extended buffer. The frame is written in place: the 8-byte
// header is reserved, the payload appended after it, and the length and CRC
// patched in last, so a buffer with room for the frame is not reallocated.
func AppendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = binary.AppendUvarint(buf, r.Txn)
	buf = binary.AppendVarint(buf, int64(r.TS))
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
	buf = append(buf, r.Value...)

	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.Checksum(payload, crcTable))
	return buf
}

// frameSize is the exact length of r's frame as AppendRecord writes it.
func frameSize(r Record) int {
	zigzag := uint64(r.TS) << 1
	if r.TS < 0 {
		zigzag = ^zigzag
	}
	return 8 + 1 + uvarintLen(r.LSN) + uvarintLen(r.Txn) + uvarintLen(zigzag) +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Value))) + len(r.Value)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// FrameLSN reads the LSN and the length of the frame at the start of buf
// from its header, without checking the CRC or decoding the rest of the
// payload: enough to check that already-framed records continue a stream.
func FrameLSN(buf []byte) (lsn uint64, n int, err error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	n = 8 + int(binary.LittleEndian.Uint32(buf))
	if n < 10 || len(buf) < n {
		return 0, 0, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	lsn, read := binary.Uvarint(buf[9:n])
	if read <= 0 {
		return 0, 0, ErrCorrupt
	}
	return lsn, n, nil
}

// DecodeRecord parses one frame from buf, returning the record and the
// remaining bytes.
func DecodeRecord(buf []byte) (Record, []byte, error) {
	_, n, err := FrameLSN(buf)
	if err != nil {
		return Record{}, nil, err
	}
	payload, rest := buf[8:n], buf[n:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:8]) {
		return Record{}, nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}

	var r Record
	r.Type = Type(payload[0])
	p := payload[1:]
	var read int
	if r.LSN, read = binary.Uvarint(p); read <= 0 {
		return Record{}, nil, ErrCorrupt
	}
	p = p[read:]
	if r.Txn, read = binary.Uvarint(p); read <= 0 {
		return Record{}, nil, ErrCorrupt
	}
	p = p[read:]
	tsv, read := binary.Varint(p)
	if read <= 0 {
		return Record{}, nil, ErrCorrupt
	}
	r.TS = ts.Timestamp(tsv)
	p = p[read:]
	klen, read := binary.Uvarint(p)
	if read <= 0 || uint64(len(p)-read) < klen {
		return Record{}, nil, ErrCorrupt
	}
	p = p[read:]
	if klen > 0 {
		r.Key = append([]byte(nil), p[:klen]...)
	}
	p = p[klen:]
	vlen, read := binary.Uvarint(p)
	if read <= 0 || uint64(len(p)-read) < vlen {
		return Record{}, nil, ErrCorrupt
	}
	p = p[read:]
	if vlen > 0 {
		r.Value = append([]byte(nil), p[:vlen]...)
	}
	if uint64(len(p)) != vlen {
		return Record{}, nil, fmt.Errorf("%w: trailing bytes in frame", ErrCorrupt)
	}
	return r, rest, nil
}

// Marshal encodes a batch of records into one byte stream, sized once: the
// bytes a Log holding the same records hands out.
func Marshal(recs []Record) []byte {
	n := 0
	for _, r := range recs {
		n += frameSize(r)
	}
	buf := make([]byte, 0, n)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

// Unmarshal decodes a stream produced by Marshal.
func Unmarshal(buf []byte) ([]Record, error) {
	var out []Record
	for len(buf) > 0 {
		r, rest, err := DecodeRecord(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		buf = rest
	}
	return out, nil
}

// Log is an in-memory append-only redo log standing in for GaussDB's XLOG:
// the frames of its records back to back, each written once by AppendRecord
// when the record is appended, with an index from LSN to frame offset.
//
// Bytes the log has handed out are never written again. A view is capped at
// its own length, so appending to it cannot reach the log's later frames,
// and Truncate copies the retained frames into a new buffer rather than
// moving them within the old one, which an in-flight batch may still hold.
type Log struct {
	mu       sync.Mutex
	buf      []byte // the retained frames
	offs     []int  // offs[i] is where the frame of LSN startLSN+i starts in buf
	startLSN uint64 // LSN of the first retained frame
	nextLSN  uint64
	waiters  []chan struct{}
}

// NewLog returns an empty log whose first record will get LSN 1.
func NewLog() *Log {
	return &Log{startLSN: 1, nextLSN: 1}
}

// AppendBatch assigns the next LSNs to recs and frames them onto the log in
// one lock acquisition, waking tailing readers. It returns the LSN of the
// last record and a view of the frames just appended.
func (l *Log) AppendBatch(recs []Record) (uint64, []byte) {
	if len(recs) == 0 {
		return l.LastLSN(), nil
	}
	l.mu.Lock()
	start := len(l.buf)
	for _, r := range recs {
		r.LSN = l.nextLSN
		l.nextLSN++
		l.offs = append(l.offs, len(l.buf))
		l.buf = AppendRecord(l.buf, r)
	}
	last, frames := l.nextLSN-1, l.buf[start:len(l.buf):len(l.buf)]
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	return last, frames
}

// LastLSN returns the LSN of the most recent record (0 when empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Retained returns how many records the log holds in memory: those appended
// and not yet truncated.
func (l *Log) Retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.offs)
}

// RetainedBytes returns the size of the frames the log holds in memory.
func (l *Log) RetainedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// ReadFrom returns a view of up to max whole frames (every retained one when
// max <= 0) starting at LSN from, and how many frames it holds. It returns
// ErrTruncated if from precedes the retained prefix. An empty view means the
// log has no records at or beyond from yet.
func (l *Log) ReadFrom(from uint64, max int) ([]byte, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.startLSN {
		return nil, 0, fmt.Errorf("%w: want %d, retained from %d", ErrTruncated, from, l.startLSN)
	}
	if from >= l.nextLSN {
		return nil, 0, nil
	}
	i, j, end := int(from-l.startLSN), len(l.offs), len(l.buf)
	if max > 0 && j-i > max {
		j = i + max
		end = l.offs[j]
	}
	return l.buf[l.offs[i]:end:end], j - i, nil
}

// TypeAt returns the type of the retained record at lsn, read from its frame
// header through the index: no decode, no CRC check, no allocation. ok is
// false when the log does not hold lsn.
func (l *Log) TypeAt(lsn uint64) (t Type, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.startLSN || lsn >= l.nextLSN {
		return 0, false
	}
	return Type(l.buf[l.offs[lsn-l.startLSN]+8]), true
}

// NotifyAppend returns a channel closed at the next append. Callers check
// for new records, then wait on the channel, then re-check — the classic
// condition-variable pattern without lost wakeups.
func (l *Log) NotifyAppend() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := make(chan struct{})
	l.waiters = append(l.waiters, ch)
	return ch
}

// Truncate drops records with LSN < before, bounding memory. Replication
// managers call it once every reader of the log is past the prefix. The
// retained frames move to a new buffer; views of the old one stay intact.
func (l *Log) Truncate(before uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if before <= l.startLSN {
		return
	}
	drop := int(min(before, l.nextLSN) - l.startLSN)
	off := len(l.buf)
	if drop < len(l.offs) {
		off = l.offs[drop]
	}
	offs := make([]int, len(l.offs)-drop)
	for i, o := range l.offs[drop:] {
		offs[i] = o - off
	}
	l.buf, l.offs = append([]byte(nil), l.buf[off:]...), offs
	l.startLSN += uint64(drop)
}
