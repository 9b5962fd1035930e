// Package redo implements GlobalDB's redo (write-ahead) log.
//
// Primary data nodes append a record for every heap mutation plus the
// transaction-control records the replication protocol of Secs. II-A and
// IV-A relies on: PENDING COMMIT (written before the commit timestamp is
// fetched), COMMIT/ABORT, the two-phase-commit PREPARE and COMMIT/ABORT
// PREPARED pair, DDL barriers, and heartbeats that advance idle replicas.
//
// Records are assigned contiguous LSNs. Shippers tail the log, batch and
// optionally compress record frames, and stream them to replicas.
package redo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// and returns the extended buffer.
func AppendRecord(buf []byte, r Record) []byte {
	var payload []byte
	payload = append(payload, byte(r.Type))
	payload = binary.AppendUvarint(payload, r.LSN)
	payload = binary.AppendUvarint(payload, r.Txn)
	payload = binary.AppendVarint(payload, int64(r.TS))
	payload = binary.AppendUvarint(payload, uint64(len(r.Key)))
	payload = append(payload, r.Key...)
	payload = binary.AppendUvarint(payload, uint64(len(r.Value)))
	payload = append(payload, r.Value...)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeRecord parses one frame from buf, returning the record and the
// remaining bytes.
func DecodeRecord(buf []byte) (Record, []byte, error) {
	if len(buf) < 8 {
		return Record{}, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	want := binary.LittleEndian.Uint32(buf[4:8])
	if len(buf) < 8+int(n) {
		return Record{}, nil, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	payload := buf[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != want {
		return Record{}, nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	rest := buf[8+n:]

	var r Record
	if len(payload) < 1 {
		return Record{}, nil, ErrCorrupt
	}
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

// Marshal encodes a batch of records into one byte stream.
func Marshal(recs []Record) []byte {
	var buf []byte
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

// Log is an in-memory append-only redo log with LSN assignment, tailing, and
// truncation. It stands in for GaussDB's on-disk XLOG: the replication
// protocol only needs ordered records with stable LSNs.
type Log struct {
	mu       sync.Mutex
	recs     []Record
	startLSN uint64 // LSN of recs[0]
	nextLSN  uint64
	waiters  []chan struct{}
}

// NewLog returns an empty log whose first record will get LSN 1.
func NewLog() *Log {
	return &Log{startLSN: 1, nextLSN: 1}
}

// Append assigns the next LSN to r and appends it, waking tailing readers.
func (l *Log) Append(r Record) uint64 {
	l.mu.Lock()
	r.LSN = l.nextLSN
	l.nextLSN++
	l.recs = append(l.recs, r)
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	return r.LSN
}

// AppendBatch appends several records atomically (one lock acquisition),
// returning the LSN of the last record.
func (l *Log) AppendBatch(recs []Record) uint64 {
	if len(recs) == 0 {
		return l.LastLSN()
	}
	l.mu.Lock()
	for i := range recs {
		recs[i].LSN = l.nextLSN
		l.nextLSN++
		l.recs = append(l.recs, recs[i])
	}
	last := l.nextLSN - 1
	waiters := l.waiters
	l.waiters = nil
	l.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	return last
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
	return len(l.recs)
}

// ReadFrom returns up to max records starting at LSN from. It returns
// ErrTruncated if from precedes the retained prefix. An empty result means
// the log has no records at or beyond from yet.
func (l *Log) ReadFrom(from uint64, max int) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.startLSN {
		return nil, fmt.Errorf("%w: want %d, retained from %d", ErrTruncated, from, l.startLSN)
	}
	if from >= l.nextLSN {
		return nil, nil
	}
	i := int(from - l.startLSN)
	j := len(l.recs)
	if max > 0 && j-i > max {
		j = i + max
	}
	out := make([]Record, j-i)
	copy(out, l.recs[i:j])
	return out, nil
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
// managers call it once every reader of the log is past the prefix.
func (l *Log) Truncate(before uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if before <= l.startLSN {
		return
	}
	if before > l.nextLSN {
		before = l.nextLSN
	}
	drop := int(before - l.startLSN)
	if drop > len(l.recs) {
		drop = len(l.recs)
	}
	l.recs = append([]Record(nil), l.recs[drop:]...)
	l.startLSN = before
}
