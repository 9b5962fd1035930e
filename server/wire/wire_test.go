package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"globaldb"
)

// testMessages is one of every message, with every field exercised.
func testMessages() []Message {
	return []Message{
		&Hello{Version: ProtocolVersion, Region: "xian", Staleness: "50ms"},
		&Hello{Version: 7},
		&HelloOK{Region: "dongguan", Mode: "GTM"},
		&Query{SQL: "SELECT * FROM t WHERE k = ?", Args: []any{int64(1)}},
		&Query{SQL: "CREATE TABLE t (k BIGINT, PRIMARY KEY (k)); INSERT INTO t VALUES (1);"},
		&Query{SQL: "SELECT ?", Args: []any{nil, int64(-42), 2.5, "it's", []byte{0, 0xff}, true, false}},
		&Parse{Name: "s1", SQL: "SELECT k FROM t WHERE k = $1"},
		&ParseOK{NumParams: 3},
		&Execute{Name: "s1", Args: []any{int64(9)}},
		&CloseStmt{Name: "s1"},
		&Reset{},
		&Ping{},
		&Pong{},
		&Cancel{},
		&RowHeader{Columns: []string{"k", "v"}, OnReplicas: true},
		&RowHeader{},
		&RowBatch{Rows: [][]any{{int64(1), "a"}, {int64(2), nil}}},
		&RowBatch{},
		&Done{Affected: 3, Msg: "INSERT 3", InTxn: true, Canceled: true,
			Stats: globaldb.ScanStats{StorageRows: 2000, DNFilteredRows: 1800, WANRows: 200,
				PagesFetched: 8, PrefetchHits: 7, WANWait: 1500 * time.Microsecond}},
		&Done{},
		&Error{Code: "statement", Msg: "gsql: no such table"},
		&Stats{},
		&StatsResult{Accepted: 12, Active: 3, Statements: 400, RowsStreamed: 90000,
			Canceled: 2, Panics: 1, InFlight: 5,
			Latencies: []StmtLatency{
				{Type: "select", Count: 350, SumNanos: 7e9, P50Nanos: 1 << 20, P95Nanos: 1 << 24, P99Nanos: 1 << 26},
				{Type: "insert", Count: 50, SumNanos: 5e8, P50Nanos: 1 << 19, P95Nanos: 1 << 22, P99Nanos: 1 << 23},
			}},
		&StatsResult{},
	}
}

// TestMessageRoundTrip pins every message's encode/decode round trip,
// including frame-level writing and reading back-to-back frames from one
// stream.
func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := testMessages()
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	rd := NewReader(&buf)
	for i, want := range msgs {
		got, err := rd.ReadMessage()
		if err != nil {
			t.Fatalf("read %d (%v): %v", i, want.Type(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: got %#v, want %#v", i, got, want)
		}
	}
	if _, err := rd.ReadMessage(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestMalformedFrames pins the rejection paths: bad lengths, unknown
// types, truncated and trailing payload bytes, and a bad tag, a hostile
// length or a truncated value inside a query argument or a result row must
// error (never panic). All but a stream cut short are ErrProtocol: the
// server closes the connection on it.
func TestMalformedFrames(t *testing.T) {
	frame := func(payload ...byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		return append(b, payload...)
	}
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint above MaxInt32
	cases := []struct {
		name string
		b    []byte
	}{
		{"zero length", frame()},
		{"huge length", binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)},
		{"unknown type", frame(0xEE)},
		{"truncated header", []byte{0, 0}},
		{"truncated payload", binary.BigEndian.AppendUint32(nil, 100)},
		{"hello truncated", frame(byte(MsgHello), 1)},
		{"trailing bytes", frame(byte(MsgPing), 1, 2, 3)},
		{"query bad arg tag", frame(byte(MsgQuery), 1, 'x', 1, 0xEE)},
		{"done truncated", frame(byte(MsgDone), 2)},
		{"batch hostile row count", frame(byte(MsgRowBatch), 0xff, 0xff, 0xff, 0xff, 0x07)},
		{"query arg hostile string length", frame(append([]byte{byte(MsgQuery), 1, 'x', 1, 3}, hostile...)...)},
		{"execute arg string past end", frame(byte(MsgExecute), 1, 's', 1, 3, 0x7f, 'a')},
		{"row bad tag", frame(byte(MsgRowBatch), 1, 1, 0xEE)},
		{"row hostile bytes length", frame(append([]byte{byte(MsgRowBatch), 1, 1, 4}, hostile...)...)},
		{"row truncated int", frame(byte(MsgRowBatch), 1, 1, 1, 0, 0)},
		{"row truncated bool", frame(byte(MsgRowBatch), 1, 1, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReader(bytes.NewReader(tc.b)).ReadMessage()
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if errors.Is(err, io.EOF) && tc.name != "truncated header" {
				t.Fatalf("malformed frame read as clean EOF: %v", err)
			}
			if cut := tc.name == "truncated header" || tc.name == "truncated payload"; !cut && !errors.Is(err, ErrProtocol) {
				t.Fatalf("error %v, want ErrProtocol", err)
			}
		})
	}
}

// TestValueEncodeRejectsUnknownTypes pins that unsupported Go types fail at
// encode time instead of producing undecodable bytes.
func TestValueEncodeRejectsUnknownTypes(t *testing.T) {
	if _, err := AppendFrame(nil, &Query{SQL: "SELECT ?", Args: []any{time.Now()}}); err == nil {
		t.Fatal("time.Time argument must be rejected at encode time")
	}
	if _, err := AppendFrame(nil, &RowBatch{Rows: [][]any{{struct{}{}}}}); err == nil {
		t.Fatal("struct value must be rejected at encode time")
	}
}
