// Command globaldb-server runs an in-process GlobalDB cluster behind the
// wire-protocol network server, turning the single-process reproduction
// into something clients connect to like a real database: gsql -connect,
// or database/sql with a tcp:// DSN through the globaldb driver.
//
// Usage:
//
//	globaldb-server [-addr :7687] [-topology three-city|one-region]
//	                [-region xian] [-timescale 0.05] [-batchrows 128]
//
// The process serves until SIGINT/SIGTERM, then drains gracefully:
// in-flight statements finish, new dials are refused, and only after
// -draintimeout are straggler connections force-closed.
//
// -metrics starts an operations listener on a second address serving
// Prometheus text metrics at /metrics (statement latency histograms,
// in-flight gauge, connection and scan counters) and the standard
// net/http/pprof profiling endpoints under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"globaldb"
	"globaldb/internal/obs"
	"globaldb/server"
)

func main() {
	addr := flag.String("addr", ":7687", "listen address")
	topology := flag.String("topology", "three-city", "cluster topology: three-city or one-region")
	region := flag.String("region", "", "default home region for sessions that name none")
	timescale := flag.Float64("timescale", 0.05, "network time scale (1.0 = real WAN latencies)")
	rtt := flag.Duration("rtt", 10*time.Millisecond, "injected RTT for the one-region topology")
	batchRows := flag.Int("batchrows", 0, "rows per streamed row-batch frame (0 = default)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "how long Shutdown waits for in-flight statements")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof/ on this address (e.g. :9090; empty = off)")
	slowQuery := flag.Duration("slowquery", 0, "log statements slower than this threshold (0 = off)")
	flag.Parse()

	var cfg globaldb.Config
	switch *topology {
	case "three-city":
		cfg = globaldb.ThreeCity()
	case "one-region":
		cfg = globaldb.OneRegion(*rtt)
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topology)
		os.Exit(2)
	}
	cfg.TimeScale = *timescale

	db, err := globaldb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()

	srv := server.New(db, server.Options{
		Region:             *region,
		BatchRows:          *batchRows,
		SlowQueryThreshold: *slowQuery,
	})
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("globaldb-server — %s topology (mode %v), serving on %s\n",
		*topology, db.Mode(), srv.Addr())
	fmt.Printf("connect with: gsql -connect %s\n", srv.Addr())

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		// Both the server's own registry (statement latencies, connection
		// counters) and the process-wide default (scan totals, driver
		// connection gauges) appear on one scrape.
		mux.Handle("/metrics", obs.MetricsHandler(srv.Metrics(), obs.Default))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ops := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "metrics listener:", err)
			}
		}()
		defer ops.Close()
		fmt.Printf("metrics on http://%s/metrics, profiles on http://%s/debug/pprof/\n",
			*metricsAddr, *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\ndraining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Printf("served %d connections, %d statements, %d rows streamed\n",
		st.Accepted, st.Statements, st.RowsStreamed)
}
