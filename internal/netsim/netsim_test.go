package netsim

import (
	"context"
	"errors"
	"testing"
	"time"
)

var bg = context.Background()

func threeCity(scale float64) *Network {
	// The paper's Three-City triangle: 25/35/55 ms RTT edges.
	n := New(Config{TimeScale: scale})
	n.SetLink("xian", "langzhong", 25*time.Millisecond, 0)
	n.SetLink("langzhong", "dongguan", 35*time.Millisecond, 0)
	n.SetLink("xian", "dongguan", 55*time.Millisecond, 0)
	return n
}

func TestOneWayLatency(t *testing.T) {
	n := threeCity(1.0)
	d, err := n.OneWay("xian", "langzhong", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 12500*time.Microsecond {
		t.Fatalf("one-way = %v, want 12.5ms", d)
	}
	// Symmetric.
	d2, _ := n.OneWay("langzhong", "xian", 0)
	if d2 != d {
		t.Fatalf("asymmetric link: %v vs %v", d, d2)
	}
}

func TestIntraRegionIsFree(t *testing.T) {
	n := threeCity(1.0)
	d, err := n.OneWay("xian", "xian", 1<<20)
	if err != nil || d != 0 {
		t.Fatalf("intra-region: %v, %v", d, err)
	}
}

func TestTimeScale(t *testing.T) {
	n := threeCity(0.1)
	d, _ := n.OneWay("xian", "dongguan", 0)
	if d != 2750*time.Microsecond {
		t.Fatalf("scaled one-way = %v, want 2.75ms", d)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	n := New(Config{})
	n.SetLink("a", "b", 10*time.Millisecond, 1e6) // 1 MB/s
	d, _ := n.OneWay("a", "b", 100_000)           // 100 KB -> +100ms
	if d < 100*time.Millisecond || d > 110*time.Millisecond {
		t.Fatalf("serialization delay = %v", d)
	}
}

func TestJitterBounded(t *testing.T) {
	n := New(Config{JitterFrac: 0.2, Seed: 7})
	n.SetLink("a", "b", 100*time.Millisecond, 0)
	for i := 0; i < 100; i++ {
		d, _ := n.OneWay("a", "b", 0)
		if d < 40*time.Millisecond || d > 60*time.Millisecond {
			t.Fatalf("jittered one-way %v outside ±20%% of 50ms", d)
		}
	}
}

func TestNoRoute(t *testing.T) {
	n := threeCity(1.0)
	if _, err := n.OneWay("xian", "mars", 0); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unknown region: %v", err)
	}
}

func TestPartition(t *testing.T) {
	n := threeCity(1.0)
	n.SetPartitioned("xian", "dongguan", true)
	if _, err := n.OneWay("xian", "dongguan", 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned link: %v", err)
	}
	// Other links stay up.
	if _, err := n.OneWay("xian", "langzhong", 0); err != nil {
		t.Fatal(err)
	}
	n.SetPartitioned("xian", "dongguan", false)
	if _, err := n.OneWay("xian", "dongguan", 0); err != nil {
		t.Fatal(err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := New(Config{})
	n.SetLink("a", "b", 20*time.Millisecond, 0)
	n.Register("echo", "b", func(_ context.Context, req Message) (Message, error) {
		return Message{Payload: req.Payload, Size: 8}, nil
	})
	start := time.Now()
	resp, err := n.Call(bg, "a", "echo", Message{Payload: "hi", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload != "hi" {
		t.Fatalf("payload = %v", resp.Payload)
	}
	if e := time.Since(start); e < 20*time.Millisecond {
		t.Fatalf("call returned in %v, must pay one RTT", e)
	}
}

func TestCallLocalIsFast(t *testing.T) {
	n := New(Config{})
	n.AddRegion("a")
	n.Register("svc", "a", func(_ context.Context, req Message) (Message, error) {
		return Message{}, nil
	})
	start := time.Now()
	if _, err := n.Call(bg, "a", "svc", Message{}); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 5*time.Millisecond {
		t.Fatalf("local call took %v", e)
	}
}

func TestCallEndpointDown(t *testing.T) {
	n := New(Config{})
	n.AddRegion("a")
	ep := n.Register("svc", "a", func(_ context.Context, req Message) (Message, error) {
		return Message{}, nil
	})
	ep.SetDown(true)
	if _, err := n.Call(bg, "a", "svc", Message{}); !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("down endpoint: %v", err)
	}
	ep.SetDown(false)
	if _, err := n.Call(bg, "a", "svc", Message{}); err != nil {
		t.Fatal(err)
	}
}

func TestCallUnknownEndpoint(t *testing.T) {
	n := New(Config{})
	n.AddRegion("a")
	if _, err := n.Call(bg, "a", "nope", Message{}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown endpoint: %v", err)
	}
}

func TestCallContextCancelDuringDelay(t *testing.T) {
	n := New(Config{})
	n.SetLink("a", "b", time.Second, 0)
	n.Register("slow", "b", func(_ context.Context, req Message) (Message, error) {
		return Message{}, nil
	})
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Call(ctx, "a", "slow", Message{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("cancellation did not interrupt the simulated delay")
	}
}

func TestRegionsList(t *testing.T) {
	n := threeCity(1)
	if got := len(n.Regions()); got != 3 {
		t.Fatalf("regions = %d", got)
	}
}

// TestLinkStatsCountPerDirection pins the per-link accounting: an RPC is one
// message each way with its declared sizes, and a message a partition
// refused is not traffic.
func TestLinkStatsCountPerDirection(t *testing.T) {
	n := threeCity(0.01)
	n.Register("svc", "dongguan", func(context.Context, Message) (Message, error) {
		return Message{Size: 700}, nil
	})
	for i := 0; i < 3; i++ {
		if _, err := n.Call(bg, "xian", "svc", Message{Size: 40}); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.LinkStats("xian", "dongguan"); got != (LinkStats{Messages: 3, Bytes: 120}) {
		t.Fatalf("requests: %+v", got)
	}
	if got := n.LinkStats("dongguan", "xian"); got != (LinkStats{Messages: 3, Bytes: 2100}) {
		t.Fatalf("responses: %+v", got)
	}
	if got := n.LinkStats("xian", "langzhong"); got != (LinkStats{}) {
		t.Fatalf("idle link: %+v", got)
	}

	n.SetPartitioned("xian", "dongguan", true)
	if _, err := n.Call(bg, "xian", "svc", Message{Size: 40}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned call: %v", err)
	}
	if got := n.LinkStats("xian", "dongguan").Messages; got != 3 {
		t.Fatalf("a refused message was counted: %d", got)
	}
}

// TestSendIsOneWay: a sent message is one message on the link, none comes
// back, the sender does not wait for the delay, and the handler sees it one
// one-way delay later. A down endpoint drops it; a partition refuses it
// without counting it.
func TestSendIsOneWay(t *testing.T) {
	n := threeCity(0.1) // xian->dongguan: 2.75 ms one way
	got := make(chan time.Duration, 2)
	var sent time.Time
	ep := n.Register("sink", "dongguan", func(_ context.Context, m Message) (Message, error) {
		got <- time.Since(sent)
		return Message{Size: 999}, nil
	})
	sent = time.Now()
	if err := n.Send("xian", "sink", Message{Size: 32}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(sent); took > time.Millisecond {
		t.Fatalf("Send blocked for %v", took)
	}
	select {
	case d := <-got:
		if d < 2750*time.Microsecond {
			t.Fatalf("delivered after %v, before the one-way delay", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("never delivered")
	}
	if st := n.LinkStats("xian", "dongguan"); st != (LinkStats{Messages: 1, Bytes: 32}) {
		t.Fatalf("forward link: %+v", st)
	}
	if st := n.LinkStats("dongguan", "xian"); st != (LinkStats{}) {
		t.Fatalf("a one-way message came back: %+v", st)
	}

	ep.SetDown(true)
	sent = time.Now()
	if err := n.Send("xian", "sink", Message{Size: 32}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("a down endpoint handled a message")
	case <-time.After(20 * time.Millisecond):
	}
	n.SetPartitioned("xian", "dongguan", true)
	if err := n.Send("xian", "sink", Message{Size: 32}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned send: %v", err)
	}
	if err := n.Send("xian", "nowhere", Message{}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("send to an unknown endpoint: %v", err)
	}
	if st := n.LinkStats("xian", "dongguan"); st.Messages != 2 {
		t.Fatalf("messages on the link = %d, want 2 (the refused one is not counted)", st.Messages)
	}
}
