// Package wal persists a data node's redo stream to disk, standing in for
// GaussDB's XLOG durability layer: it writes the frames a primary's redo.Log
// made, the bytes the shippers send, so a primary can crash-recover by
// replaying them (the same replay path replicas use, Sec. II-A). As in XLOG,
// the request that produces records writes them itself — a primary appends
// to its WAL under the same hold of its mutex that appends them to its log —
// and only the flush is shared: under
// the SyncGroup policy a committer goroutine coalesces concurrent
// appenders' fsyncs into group commits (group.go), and callers observe
// durability through a monotone watermark (DurableLSN / WaitDurable) rather
// than per-append fsync returns. A failed write or fsync is fail-stop: the
// writer refuses every later append and fails every durability wait it has
// not already met.
//
// Layout: a directory of segment files named wal-<startLSN>.log, each a
// concatenation of the redo package's length-prefixed, CRC32C-protected
// frames. Recovery scans segments in LSN order, verifies every frame, and
// truncates a torn tail (an interrupted write during a crash) at the first
// corrupt or out-of-sequence frame.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"globaldb/internal/redo"
)

// DefaultSegmentBytes is the rotation threshold for segment files.
const DefaultSegmentBytes = 4 << 20

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy uint8

const (
	// SyncEveryBatch fsyncs after every Append call (commit durability).
	SyncEveryBatch SyncPolicy = iota
	// SyncNever leaves flushing to the OS (fastest, weakest).
	SyncNever
	// SyncGroup batches fsyncs across concurrent appenders: a committer
	// goroutine coalesces everything appended within a linger window into
	// one fsync and resolves the affected WaitDurable futures (group
	// commit). Fsyncs are demand-driven — only a parked WaitDurable caller
	// triggers one, and it covers every record appended before it — so K
	// concurrent commits cost ~1 fsync and intent-only appends cost none.
	SyncGroup
)

// DefaultGroupLinger is the longest the group committer waits, once it has
// seen concurrent committers, for more commits to pile into the same fsync.
const DefaultGroupLinger = 200 * time.Microsecond

// DefaultGroupMaxBatch caps how many records a group fsync may cover before
// the linger is skipped and the fsync issued immediately.
const DefaultGroupMaxBatch = 4096

// Options configures a writer.
type Options struct {
	// Dir is the segment directory; created if missing.
	Dir string
	// SegmentBytes rotates segments at this size (default 4 MiB).
	SegmentBytes int64
	// Sync selects the durability policy (default SyncEveryBatch).
	Sync SyncPolicy
	// Linger is the upper bound on how long a group fsync waits for more
	// committers (SyncGroup only; default DefaultGroupLinger). The wait is
	// taken only while commits are arriving concurrently — several waiters
	// parked, or the previous group released several — so a lone committer
	// pays the fsync and nothing more.
	Linger time.Duration
	// MaxBatch forces a group fsync once this many records are unsynced,
	// skipping the linger (SyncGroup only; default DefaultGroupMaxBatch).
	MaxBatch int
	// FsyncDelay adds a simulated device-sync latency to every fsync — the
	// WAL's analogue of netsim's WAN model, for benchmarks on tmpfs where
	// real fsync cost is invisible. Zero (the default) adds nothing.
	FsyncDelay time.Duration
}

// Errors.
var (
	// ErrClosed means the writer was closed.
	ErrClosed = errors.New("wal: writer closed")
	// ErrGap means an appended batch does not continue the stream.
	ErrGap = errors.New("wal: LSN gap")
)

// Writer appends redo records to segment files.
type Writer struct {
	opts Options

	mu      sync.Mutex
	file    *os.File
	size    int64
	nextLSN uint64
	closed  bool

	appends atomic.Int64
	// commits counts the commit records (waitedType) appended, at append
	// time, and syncedCommits how many of them the last fsync covered: the
	// group committer's evidence of concurrent committers (group.go).
	commits       atomic.Uint64
	syncedCommits atomic.Uint64
	syncs         atomic.Int64
	groups        atomic.Int64 // group fsyncs issued (SyncGroup)
	grouped       atomic.Int64 // commit waiters released by group fsyncs

	// durable is the highest LSN known to be on stable storage; WaitDurable
	// futures resolve as it advances (group.go).
	durable atomic.Uint64
	wmu     sync.Mutex
	waiters []waiter
	werr    error

	// Group-committer goroutine plumbing (nil unless Sync == SyncGroup).
	syncReq    chan struct{}
	syncerStop chan struct{}
	syncerDone chan struct{}
	stopOnce   sync.Once
	// lastGroupCommits is how many commit records the syncer's last fsync
	// covered; only the syncer goroutine touches it.
	lastGroupCommits uint64
}

// segmentName formats the file name for a segment starting at startLSN.
func segmentName(startLSN uint64) string {
	return fmt.Sprintf("wal-%020d.log", startLSN)
}

// parseSegmentName extracts the start LSN, reporting ok=false for
// non-segment files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open creates a writer. If the directory already holds segments, the
// writer continues after the last valid record (use Recover first to learn
// what survived).
func Open(opts Options) (*Writer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: no directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	recs, err := Recover(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.Sync == SyncGroup {
		if opts.Linger <= 0 {
			opts.Linger = DefaultGroupLinger
		}
		if opts.MaxBatch <= 0 {
			opts.MaxBatch = DefaultGroupMaxBatch
		}
	}
	w := &Writer{opts: opts, nextLSN: 1}
	if n := len(recs); n > 0 {
		w.nextLSN = recs[n-1].LSN + 1
		// Everything recovery validated is on disk already.
		w.durable.Store(recs[n-1].LSN)
	}
	if opts.Sync == SyncGroup {
		w.syncReq = make(chan struct{}, 1)
		w.syncerStop = make(chan struct{})
		w.syncerDone = make(chan struct{})
		go w.runSyncer()
	}
	return w, nil
}

// NextLSN returns the LSN the next appended record must carry.
func (w *Writer) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Append writes whole redo frames, whose header LSNs must continue the
// stream contiguously from NextLSN, to the active segment as they are. Under
// SyncEveryBatch they are fsynced before returning; under SyncGroup the
// group committer fsyncs them shortly after (WaitDurable parks until then);
// under SyncNever flushing is left to the OS.
func (w *Writer) Append(frames []byte) error {
	if len(frames) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendableLocked(); err != nil {
		return err
	}
	next := w.nextLSN
	commits := 0
	for p := frames; len(p) > 0; next++ {
		lsn, n, err := redo.FrameLSN(p)
		if err != nil {
			return err
		}
		if lsn != next {
			return fmt.Errorf("%w: frame %d has LSN %d, want %d", ErrGap, next-w.nextLSN, lsn, next)
		}
		if waitedType(redo.Type(p[8])) { // the type byte leads the payload
			commits++
		}
		p = p[n:]
	}
	return w.writeLocked(frames, next-1, commits)
}

// appendableLocked reports why the writer takes no more appends: it was
// closed, or an earlier write or fsync failed. Caller holds w.mu.
func (w *Writer) appendableLocked() error {
	if w.closed {
		return ErrClosed
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.werr
}

// writeLocked writes a validated run of frames ending at LSN last, commits
// of them commit records, then applies the sync policy. An error is
// terminal: the writer fails its waiters and every later append with it, so
// nothing after a lost record is ever reported durable. Caller holds w.mu.
func (w *Writer) writeLocked(frames []byte, last uint64, commits int) (err error) {
	defer func() {
		if err != nil {
			w.failWaiters(err)
		}
	}()
	if w.file == nil || w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(w.nextLSN); err != nil {
			return err
		}
	}
	if _, err := w.file.Write(frames); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	w.size += int64(len(frames))
	w.appends.Add(int64(last + 1 - w.nextLSN))
	w.nextLSN = last + 1
	switch w.opts.Sync {
	case SyncEveryBatch:
		if err := w.fsyncTimed(w.file); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		w.advanceDurable(last)
	case SyncNever:
		// No fsync discipline: treat written as durable so WaitDurable
		// callers do not park forever on a policy that never syncs.
		w.advanceDurable(last)
	case SyncGroup:
		w.commits.Add(uint64(commits))
		// Fsyncs are demand-driven: a committer kicks the syncer when it
		// parks in WaitDurable, so an append wakes it only for committers
		// already parked — one may wait on an LSN this append produced —
		// and intent-only appends cost neither an fsync nor a wakeup.
		if w.waitersParked() > 0 {
			w.kickSyncer()
		}
	}
	return nil
}

// rotateLocked closes the active segment and starts a new one whose name
// records the first LSN it will hold.
func (w *Writer) rotateLocked(startLSN uint64) error {
	if w.file != nil {
		if err := w.file.Sync(); err != nil {
			return fmt.Errorf("wal: fsync on rotate: %w", err)
		}
		if err := w.file.Close(); err != nil {
			return fmt.Errorf("wal: close on rotate: %w", err)
		}
	}
	path := filepath.Join(w.opts.Dir, segmentName(startLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	w.file = f
	w.size = st.Size()
	return nil
}

// Sync forces pending appends to stable storage and advances the durable
// watermark past them.
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed || w.file == nil {
		w.mu.Unlock()
		return nil
	}
	last, commits := w.nextLSN-1, w.commits.Load()
	err := w.fsyncTimed(w.file)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	raiseU64(&w.syncedCommits, commits)
	w.advanceDurable(last)
	return nil
}

// Close stops the group committer (if any), syncs, and closes the active
// segment. Every record appended before Close is durable afterwards, so
// parked WaitDurable futures resolve successfully (or with the sync error).
func (w *Writer) Close() error {
	if w.syncerStop != nil {
		w.stopOnce.Do(func() { close(w.syncerStop) })
		<-w.syncerDone
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if w.file == nil {
		w.mu.Unlock()
		w.advanceDurable(w.durable.Load()) // nothing written; nothing owed
		return nil
	}
	last := w.nextLSN - 1
	err := w.file.Sync()
	cerr := w.file.Close()
	w.mu.Unlock()
	if err != nil {
		w.failWaiters(fmt.Errorf("wal: fsync on close: %w", err))
		return err
	}
	w.advanceDurable(last)
	w.failWaiters(ErrClosed) // waiters beyond the last appended LSN
	return cerr
}

// Recover reads every valid record from the directory's segments, in LSN
// order. A corrupt frame (a torn write during a crash) or a gap in the LSNs
// (a lost segment tail) ends recovery at the last good record, and
// everything from there on is discarded on disk: the damaged segment is
// truncated and the segments after it are removed, so a second Recover
// returns the same records and nothing of the lost stream can resurface
// behind what a reopened writer appends. Records from a segment whose
// frames precede an already-recovered LSN are deduplicated.
func Recover(dir string) ([]redo.Record, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	type seg struct {
		start uint64
		name  string
	}
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if start, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seg{start: start, name: e.Name()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	var out []redo.Record
	for i, sg := range segs {
		path := filepath.Join(dir, sg.name)
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment: %w", err)
		}
		offset := int64(0)
		for len(buf) > 0 {
			r, rest, err := redo.DecodeRecord(buf)
			switch {
			case err == nil && (len(out) == 0 || r.LSN == out[len(out)-1].LSN+1):
				out = append(out, r)
			case err == nil && r.LSN <= out[len(out)-1].LSN:
				// Duplicate from an overlapping segment; skip.
			default:
				// A torn or corrupt frame, or a gap where a lost segment
				// tail was: nothing from here on is usable.
				if err := os.Truncate(path, offset); err != nil {
					return nil, fmt.Errorf("wal: truncate damaged tail: %w", err)
				}
				for _, later := range segs[i+1:] {
					if err := os.Remove(filepath.Join(dir, later.name)); err != nil {
						return nil, fmt.Errorf("wal: remove segment after damage: %w", err)
					}
				}
				return out, nil
			}
			offset += int64(len(buf) - len(rest))
			buf = rest
		}
	}
	return out, nil
}

// Segments lists the segment file names in LSN order (for tests and tools).
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
