package repl

import "globaldb/internal/obs"

// Redo-shipping metric names on obs.Default. Per-shipper numbers stay in
// ShipperStats; these are the process-wide mirrors the commit-path stats
// surfaces read (batch sizes and wire bytes tell whether cross-txn redo
// batching and compression are doing their job).
const (
	// MetricBatches counts batches put on the wire.
	MetricBatches = "repl_batches_total"
	// MetricRecords counts records inside those batches.
	MetricRecords = "repl_records_total"
	// MetricRawBytes counts framed record bytes before compression.
	MetricRawBytes = "repl_raw_bytes_total"
	// MetricWireBytes counts bytes that crossed the (simulated) WAN.
	MetricWireBytes = "repl_wire_bytes_total"
	// MetricSendFailures counts failed sends (replica down, partition).
	MetricSendFailures = "repl_send_failures_total"
)

var (
	metricBatches      = obs.Default.Counter(MetricBatches)
	metricRecords      = obs.Default.Counter(MetricRecords)
	metricRawBytes     = obs.Default.Counter(MetricRawBytes)
	metricWireBytes    = obs.Default.Counter(MetricWireBytes)
	metricSendFailures = obs.Default.Counter(MetricSendFailures)
)
