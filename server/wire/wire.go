// Package wire defines GlobalDB's client/server wire protocol: a
// length-prefixed binary framing and the message codecs the network server
// and the driver's TCP transport speak. The protocol is deliberately small —
// a handshake carrying the session options the driver DSN carries in
// process (region, staleness), simple queries, prepared-statement
// parse/execute, and a streaming result shape — so that one connection maps
// exactly onto one gsql session and results stream off the prefetching
// batch cursor pipeline without materializing server-side.
//
// Framing: every message crosses the wire as
//
//	[4-byte big-endian length] [1-byte message type] [payload]
//
// where length counts the type byte plus the payload. Lengths of zero or
// above MaxFrameSize are rejected before any payload allocation, so a
// hostile peer cannot make the reader allocate unbounded memory. Payloads
// carry SQL values in the tagged codec plan fragments use too
// (internal/table): uvarint lengths, type-tagged values, explicit bounds
// checks everywhere — malformed bytes must yield ErrProtocol, never a panic
// (the fuzz targets in this package hold the codec to that).
//
// A statement's response is always the same frame sequence:
//
//	RowHeader, RowBatch*, Done       (success; zero columns for non-reads)
//	... Error                        (failure, possibly mid-stream)
//
// Rows are flushed per batch, not per row, and the final Done frame carries
// every per-layer scan counter (storage / DN-filtered / WAN / DN lookup
// rows, page and prefetch observability) and the join strategy, so network
// clients see the same pushdown observability in-process callers get from
// Result.Scan and Result.JoinStrategy.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"globaldb"
	"globaldb/internal/table"
)

// ProtocolVersion is the wire protocol version carried in the handshake.
// A server refuses hellos with a version it does not speak.
const ProtocolVersion = 2

// MaxFrameSize bounds one frame's declared length (type byte + payload).
// Readers reject larger declarations before allocating.
const MaxFrameSize = 8 << 20

// ErrProtocol marks malformed frames or payloads. A peer receiving it has
// lost framing sync and must close the connection.
var ErrProtocol = errors.New("wire: protocol error")

// MsgType identifies a frame's message.
type MsgType uint8

// Message types. Client-to-server first, server-to-client second.
const (
	// MsgHello opens a connection: protocol version plus the session
	// options (region, staleness) the in-process driver DSN carries.
	MsgHello MsgType = iota + 1
	// MsgQuery runs one SQL statement (or a multi-statement script when
	// Args is empty) and streams its result.
	MsgQuery
	// MsgParse prepares a named statement server-side.
	MsgParse
	// MsgExecute runs a previously parsed statement with bound arguments.
	MsgExecute
	// MsgCloseStmt releases a named prepared statement.
	MsgCloseStmt
	// MsgReset readies the connection for reuse by a new logical client:
	// the server rolls back any open transaction.
	MsgReset
	// MsgPing checks connection liveness.
	MsgPing
	// MsgCancel asks the server to stop streaming the in-flight result.
	// Sent mid-stream; the server answers with a Done frame marked
	// Canceled. A cancel arriving after the stream finished is ignored.
	MsgCancel

	// MsgHelloOK accepts a handshake.
	MsgHelloOK
	// MsgRowHeader starts a statement's response: output columns (empty
	// for row-less statements) and where the read was served.
	MsgRowHeader
	// MsgRowBatch carries one batch of result rows.
	MsgRowBatch
	// MsgDone ends a statement's response: rows affected, the statement
	// message, transaction state, the scan counters and the join strategy.
	MsgDone
	// MsgError reports a statement or protocol failure.
	MsgError
	// MsgParseOK acknowledges a Parse with the statement's parameter count.
	MsgParseOK
	// MsgPong answers a Ping.
	MsgPong
	// MsgStats is the admin request for the server's live counters and
	// latency histograms. Answered with StatsResult.
	MsgStats
	// MsgStatsResult answers a Stats request.
	MsgStatsResult
)

var msgNames = map[MsgType]string{
	MsgHello: "Hello", MsgQuery: "Query", MsgParse: "Parse", MsgExecute: "Execute",
	MsgCloseStmt: "CloseStmt", MsgReset: "Reset", MsgPing: "Ping", MsgCancel: "Cancel",
	MsgHelloOK: "HelloOK", MsgRowHeader: "RowHeader", MsgRowBatch: "RowBatch",
	MsgDone: "Done", MsgError: "Error", MsgParseOK: "ParseOK", MsgPong: "Pong",
	MsgStats: "Stats", MsgStatsResult: "StatsResult",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is one decoded protocol message.
type Message interface {
	// Type returns the frame type byte identifying the message.
	Type() MsgType
	// append serializes the payload (everything after the type byte).
	append(b []byte) ([]byte, error)
}

// Hello opens a connection.
type Hello struct {
	// Version is the client's ProtocolVersion.
	Version uint32
	// Region is the home region of the server-side session; empty selects
	// the cluster's first region.
	Region string
	// Staleness mirrors the driver DSN option: "" or "none" for primary
	// reads, "any" for unbounded replica reads, or a duration string.
	Staleness string
}

// HelloOK accepts a handshake.
type HelloOK struct {
	// Region is the session's resolved home region.
	Region string
	// Mode is the cluster's timestamp mode (GTM or GClock), informational.
	Mode string
}

// Query runs SQL and streams the result. With Args bound, SQL must be a
// single statement; without Args it may be a multi-statement script (the
// response then describes the script's last statement).
type Query struct {
	SQL  string
	Args []any
}

// Parse prepares a named statement.
type Parse struct {
	Name string
	SQL  string
}

// ParseOK acknowledges a Parse.
type ParseOK struct {
	// NumParams is how many placeholder arguments Execute must bind.
	NumParams int
}

// Execute runs a parsed statement.
type Execute struct {
	Name string
	Args []any
}

// CloseStmt releases a parsed statement.
type CloseStmt struct {
	Name string
}

// Reset rolls back any open transaction, readying the connection for a new
// logical client. Answered with Done.
type Reset struct{}

// Ping checks liveness. Answered with Pong.
type Ping struct{}

// Pong answers Ping.
type Pong struct{}

// Cancel stops the in-flight stream.
type Cancel struct{}

// RowHeader starts a statement response.
type RowHeader struct {
	// Columns names the output columns; empty for row-less statements.
	Columns []string
	// OnReplicas reports whether the read was served from asynchronous
	// replicas rather than shard primaries.
	OnReplicas bool
}

// RowBatch carries one batch of rows; every row has RowHeader's width.
type RowBatch struct {
	Rows [][]any
}

// Done ends a statement response.
type Done struct {
	// Affected counts rows written by INSERT/UPDATE/DELETE.
	Affected int64
	// Msg is the statement's human-readable summary.
	Msg string
	// InTxn reports whether the session has an explicit transaction open
	// after this statement — clients use it to reset pooled connections.
	InTxn bool
	// Canceled marks a stream stopped by a client Cancel: the rows sent
	// before it are valid but the result is incomplete.
	Canceled bool
	// Stats carries the statement's per-layer scan counters.
	Stats globaldb.ScanStats
	// JoinStrategy names the join strategy a two-table SELECT ran with;
	// empty for every other statement.
	JoinStrategy string
}

// Error reports a failure. A statement error leaves the connection usable;
// a protocol error (Code "protocol") means framing sync is lost and the
// sender closes the connection after writing it.
type Error struct {
	Code string
	Msg  string
}

// Stats asks for the server's live counters and per-statement-type
// latency histograms. An admin/ops frame: globalctl and monitoring
// clients send it on an ordinary connection between statements.
type Stats struct{}

// StmtLatency is one statement class's latency summary in a StatsResult.
type StmtLatency struct {
	// Type is the statement class ("select", "insert", ...).
	Type string
	// Count and SumNanos aggregate every observation of the class.
	Count    int64
	SumNanos int64
	// P50Nanos/P95Nanos/P99Nanos are quantiles of the class's histogram.
	P50Nanos int64
	P95Nanos int64
	P99Nanos int64
}

// StatsResult answers Stats with a snapshot of the server's counters.
type StatsResult struct {
	// Accepted..Panics mirror stats.ServerSnapshot.
	Accepted     int64
	Active       int64
	Statements   int64
	RowsStreamed int64
	Canceled     int64
	Panics       int64
	// InFlight is the number of statements executing right now.
	InFlight int64
	// Latencies summarizes each statement class with observations.
	Latencies []StmtLatency
}

// Type implementations.
func (*Hello) Type() MsgType     { return MsgHello }
func (*HelloOK) Type() MsgType   { return MsgHelloOK }
func (*Query) Type() MsgType     { return MsgQuery }
func (*Parse) Type() MsgType     { return MsgParse }
func (*ParseOK) Type() MsgType   { return MsgParseOK }
func (*Execute) Type() MsgType   { return MsgExecute }
func (*CloseStmt) Type() MsgType { return MsgCloseStmt }
func (*Reset) Type() MsgType     { return MsgReset }
func (*Ping) Type() MsgType      { return MsgPing }
func (*Pong) Type() MsgType      { return MsgPong }
func (*Cancel) Type() MsgType    { return MsgCancel }
func (*RowHeader) Type() MsgType { return MsgRowHeader }
func (*RowBatch) Type() MsgType  { return MsgRowBatch }
func (*Done) Type() MsgType      { return MsgDone }
func (*Error) Type() MsgType     { return MsgError }
func (*Stats) Type() MsgType     { return MsgStats }

// Type returns MsgStatsResult.
func (*StatsResult) Type() MsgType { return MsgStatsResult }

// ---- Payload primitives ----
//
// Uvarint lengths guarded against hostile values and type-tagged SQL values
// come from the tagged codec of internal/table, which plan fragments share;
// its errors become ErrProtocol in DecodePayload. The rest are explicit
// remaining-bytes checks.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	n, b, err := table.DecodeLen(b)
	if err != nil || len(b) < n {
		return "", nil, ErrProtocol
	}
	return string(b[:n]), b[n:], nil
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeBool(b []byte) (bool, []byte, error) {
	if len(b) == 0 {
		return false, nil, ErrProtocol
	}
	return b[0] != 0, b[1:], nil
}

func appendValues(b []byte, vals []any) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	var err error
	for _, v := range vals {
		if b, err = table.AppendTagged(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeValues(b []byte) ([]any, []byte, error) {
	n, b, err := table.DecodeLen(b)
	if err != nil || n > len(b) { // each value takes >= 1 byte
		return nil, nil, ErrProtocol
	}
	if n == 0 {
		return nil, b, nil
	}
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		if vals[i], b, err = table.DecodeTagged(b); err != nil {
			return nil, nil, err
		}
	}
	return vals, b, nil
}

// ---- Message payload codecs ----

func (m *Hello) append(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(m.Version))
	b = appendString(b, m.Region)
	return appendString(b, m.Staleness), nil
}

func decodeHello(b []byte) (*Hello, []byte, error) {
	v, b, err := table.DecodeLen(b)
	if err != nil {
		return nil, nil, err
	}
	m := &Hello{Version: uint32(v)}
	if m.Region, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.Staleness, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *HelloOK) append(b []byte) ([]byte, error) {
	b = appendString(b, m.Region)
	return appendString(b, m.Mode), nil
}

func decodeHelloOK(b []byte) (*HelloOK, []byte, error) {
	m := &HelloOK{}
	var err error
	if m.Region, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.Mode, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *Query) append(b []byte) ([]byte, error) {
	b = appendString(b, m.SQL)
	return appendValues(b, m.Args)
}

func decodeQuery(b []byte) (*Query, []byte, error) {
	m := &Query{}
	var err error
	if m.SQL, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.Args, b, err = decodeValues(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *Parse) append(b []byte) ([]byte, error) {
	b = appendString(b, m.Name)
	return appendString(b, m.SQL), nil
}

func decodeParse(b []byte) (*Parse, []byte, error) {
	m := &Parse{}
	var err error
	if m.Name, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.SQL, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *ParseOK) append(b []byte) ([]byte, error) {
	return binary.AppendUvarint(b, uint64(m.NumParams)), nil
}

func decodeParseOK(b []byte) (*ParseOK, []byte, error) {
	n, b, err := table.DecodeLen(b)
	if err != nil {
		return nil, nil, err
	}
	return &ParseOK{NumParams: n}, b, nil
}

func (m *Execute) append(b []byte) ([]byte, error) {
	b = appendString(b, m.Name)
	return appendValues(b, m.Args)
}

func decodeExecute(b []byte) (*Execute, []byte, error) {
	m := &Execute{}
	var err error
	if m.Name, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.Args, b, err = decodeValues(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *CloseStmt) append(b []byte) ([]byte, error) {
	return appendString(b, m.Name), nil
}

func decodeCloseStmt(b []byte) (*CloseStmt, []byte, error) {
	m := &CloseStmt{}
	var err error
	if m.Name, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (*Reset) append(b []byte) ([]byte, error)  { return b, nil }
func (*Ping) append(b []byte) ([]byte, error)   { return b, nil }
func (*Pong) append(b []byte) ([]byte, error)   { return b, nil }
func (*Cancel) append(b []byte) ([]byte, error) { return b, nil }

func (m *RowHeader) append(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(m.Columns)))
	for _, c := range m.Columns {
		b = appendString(b, c)
	}
	return appendBool(b, m.OnReplicas), nil
}

func decodeRowHeader(b []byte) (*RowHeader, []byte, error) {
	n, b, err := table.DecodeLen(b)
	if err != nil || n > len(b) { // each column name takes >= 1 byte
		return nil, nil, ErrProtocol
	}
	m := &RowHeader{}
	if n > 0 {
		m.Columns = make([]string, n)
		for i := 0; i < n; i++ {
			if m.Columns[i], b, err = decodeString(b); err != nil {
				return nil, nil, err
			}
		}
	}
	if m.OnReplicas, b, err = decodeBool(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *RowBatch) append(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(m.Rows)))
	var err error
	for _, row := range m.Rows {
		if b, err = appendValues(b, row); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeRowBatch(b []byte) (*RowBatch, []byte, error) {
	n, b, err := table.DecodeLen(b)
	if err != nil || n > len(b) { // each row takes >= 1 byte
		return nil, nil, ErrProtocol
	}
	m := &RowBatch{}
	if n > 0 {
		m.Rows = make([][]any, n)
		for i := 0; i < n; i++ {
			if m.Rows[i], b, err = decodeValues(b); err != nil {
				return nil, nil, err
			}
		}
	}
	return m, b, nil
}

func (m *Done) append(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, m.Affected)
	b = appendString(b, m.Msg)
	b = appendBool(b, m.InTxn)
	b = appendBool(b, m.Canceled)
	for _, field := range doneCounters {
		b = binary.AppendVarint(b, *field(&m.Stats))
	}
	return appendString(b, m.JoinStrategy), nil
}

// doneCounters are the Done frame's scan counters, one varint each, in
// stats.ScanSnapshot's field order: the one table its encoder and its
// decoder walk.
var doneCounters = [...]func(*globaldb.ScanStats) *int64{
	func(s *globaldb.ScanStats) *int64 { return &s.StorageRows },
	func(s *globaldb.ScanStats) *int64 { return &s.DNFilteredRows },
	func(s *globaldb.ScanStats) *int64 { return &s.WANRows },
	func(s *globaldb.ScanStats) *int64 { return &s.LookupRows },
	func(s *globaldb.ScanStats) *int64 { return &s.PagesFetched },
	func(s *globaldb.ScanStats) *int64 { return &s.PrefetchHits },
	func(s *globaldb.ScanStats) *int64 { return (*int64)(&s.WANWait) },
}

func decodeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrProtocol
	}
	return v, b[n:], nil
}

func decodeDone(b []byte) (*Done, []byte, error) {
	m := &Done{}
	var err error
	if m.Affected, b, err = decodeVarint(b); err != nil {
		return nil, nil, err
	}
	if m.Msg, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.InTxn, b, err = decodeBool(b); err != nil {
		return nil, nil, err
	}
	if m.Canceled, b, err = decodeBool(b); err != nil {
		return nil, nil, err
	}
	for _, field := range doneCounters {
		if *field(&m.Stats), b, err = decodeVarint(b); err != nil {
			return nil, nil, err
		}
	}
	if m.JoinStrategy, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (m *Error) append(b []byte) ([]byte, error) {
	b = appendString(b, m.Code)
	return appendString(b, m.Msg), nil
}

func decodeError(b []byte) (*Error, []byte, error) {
	m := &Error{}
	var err error
	if m.Code, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	if m.Msg, b, err = decodeString(b); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

func (*Stats) append(b []byte) ([]byte, error) { return b, nil }

func (m *StatsResult) append(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, m.Accepted)
	b = binary.AppendVarint(b, m.Active)
	b = binary.AppendVarint(b, m.Statements)
	b = binary.AppendVarint(b, m.RowsStreamed)
	b = binary.AppendVarint(b, m.Canceled)
	b = binary.AppendVarint(b, m.Panics)
	b = binary.AppendVarint(b, m.InFlight)
	b = binary.AppendUvarint(b, uint64(len(m.Latencies)))
	for _, l := range m.Latencies {
		b = appendString(b, l.Type)
		b = binary.AppendVarint(b, l.Count)
		b = binary.AppendVarint(b, l.SumNanos)
		b = binary.AppendVarint(b, l.P50Nanos)
		b = binary.AppendVarint(b, l.P95Nanos)
		b = binary.AppendVarint(b, l.P99Nanos)
	}
	return b, nil
}

func decodeStatsResult(b []byte) (*StatsResult, []byte, error) {
	m := &StatsResult{}
	var err error
	for _, dst := range []*int64{
		&m.Accepted, &m.Active, &m.Statements, &m.RowsStreamed,
		&m.Canceled, &m.Panics, &m.InFlight,
	} {
		if *dst, b, err = decodeVarint(b); err != nil {
			return nil, nil, err
		}
	}
	n, b, err := table.DecodeLen(b)
	if err != nil || n > len(b) { // each entry takes >= 6 bytes
		return nil, nil, ErrProtocol
	}
	for i := 0; i < n; i++ {
		var l StmtLatency
		if l.Type, b, err = decodeString(b); err != nil {
			return nil, nil, err
		}
		for _, dst := range []*int64{&l.Count, &l.SumNanos, &l.P50Nanos, &l.P95Nanos, &l.P99Nanos} {
			if *dst, b, err = decodeVarint(b); err != nil {
				return nil, nil, err
			}
		}
		m.Latencies = append(m.Latencies, l)
	}
	return m, b, nil
}

// ---- Framing ----

// AppendFrame serializes one message as a frame, appending to b.
func AppendFrame(b []byte, m Message) ([]byte, error) {
	// Reserve the length word, write type + payload, patch the length.
	start := len(b)
	b = append(b, 0, 0, 0, 0, byte(m.Type()))
	b, err := m.append(b)
	if err != nil {
		return nil, err
	}
	n := len(b) - start - 4
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrameSize", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// WriteMessage frames and writes one message. Callers batching several
// frames (a row stream) should write through a bufio.Writer and flush per
// batch.
func WriteMessage(w io.Writer, m Message) error {
	b, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodePayload decodes one message from its type byte and payload. The
// payload must be consumed exactly; trailing bytes and any other malformed
// contents are ErrProtocol.
func DecodePayload(t MsgType, b []byte) (Message, error) {
	var (
		m    Message
		rest []byte
		err  error
	)
	switch t {
	case MsgHello:
		m, rest, err = decodeHello(b)
	case MsgHelloOK:
		m, rest, err = decodeHelloOK(b)
	case MsgQuery:
		m, rest, err = decodeQuery(b)
	case MsgParse:
		m, rest, err = decodeParse(b)
	case MsgParseOK:
		m, rest, err = decodeParseOK(b)
	case MsgExecute:
		m, rest, err = decodeExecute(b)
	case MsgCloseStmt:
		m, rest, err = decodeCloseStmt(b)
	case MsgReset:
		m, rest = &Reset{}, b
	case MsgPing:
		m, rest = &Ping{}, b
	case MsgPong:
		m, rest = &Pong{}, b
	case MsgCancel:
		m, rest = &Cancel{}, b
	case MsgRowHeader:
		m, rest, err = decodeRowHeader(b)
	case MsgRowBatch:
		m, rest, err = decodeRowBatch(b)
	case MsgDone:
		m, rest, err = decodeDone(b)
	case MsgError:
		m, rest, err = decodeError(b)
	case MsgStats:
		m, rest = &Stats{}, b
	case MsgStatsResult:
		m, rest, err = decodeStatsResult(b)
	default:
		return nil, fmt.Errorf("%w: unknown message type %d", ErrProtocol, t)
	}
	if err != nil {
		if !errors.Is(err, ErrProtocol) { // the shared codec's table.ErrMalformed
			err = fmt.Errorf("%w: %w", ErrProtocol, err)
		}
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v", ErrProtocol, len(rest), t)
	}
	return m, nil
}

// Reader decodes frames from a stream, reusing one payload buffer across
// messages (decoded messages never alias it).
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps a stream for frame reading.
func NewReader(r io.Reader) *Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return &Reader{r: br}
	}
	return &Reader{r: bufio.NewReader(r)}
}

// ReadMessage reads and decodes one frame. io.EOF marks a clean
// end-of-stream before a frame starts; a truncated frame is
// io.ErrUnexpectedEOF; malformed contents are ErrProtocol.
func (rd *Reader) ReadMessage() (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame length %d", ErrProtocol, n)
	}
	if cap(rd.buf) < int(n) {
		rd.buf = make([]byte, n)
	}
	buf := rd.buf[:n]
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return DecodePayload(MsgType(buf[0]), buf[1:])
}
