// Package gtm implements the Global Transaction Manager — GaussDB's
// centralized timestamp server — together with the DUAL mode that bridges
// centralized and clock-based transaction management during an online
// transition (Sec. III-A, Figs. 2–3).
//
// In GTM mode timestamps are a counter incremented per transaction (Eq. 2).
// In DUAL mode the server issues TS_DUAL = max(TS_GTM, TS_GClock) + 1
// (Eq. 3), guaranteed larger than both the most recent GTM timestamp and
// every reported clock upper bound, and tells the requester how long to wait
// so incompatible timestamps cannot produce visibility anomalies. In GClock
// mode the server refuses plain GTM requests (old GTM-mode transactions
// abort) but keeps serving DUAL requests from nodes that have not finished
// switching.
package gtm

import (
	"context"
	"errors"
	"sync"
	"time"

	"globaldb/internal/netsim"
	"globaldb/internal/ts"
)

// ErrOldModeAborted is returned to a GTM-mode transaction that tries to get
// a timestamp after the server has moved on to GClock mode.
var ErrOldModeAborted = errors.New("gtm: server in GClock mode; old GTM-mode transaction must abort")

// Request asks the server for a timestamp or reports a clock reading.
type Request struct {
	// Mode is the requester's transaction management mode.
	Mode ts.Mode
	// GClock is the requester's clock reading; set for DUAL requests and
	// for GClock commit reports.
	GClock ts.Interval
	// Report marks a one-way notification of a GClock commit timestamp
	// (Fig. 3: "Send TS_GClock, Terr — no response needed").
	Report bool
	// Floor, on a DUAL commit request, is the highest read floor of the
	// commit's participants: the issued TS_DUAL exceeds it too, so the commit
	// lands above every snapshot they have served, unwaited GClock ones
	// included.
	Floor ts.Timestamp
}

// Response carries an issued timestamp.
type Response struct {
	// TS is the issued timestamp.
	TS ts.Timestamp
	// Wait must elapse before the requester commits with TS. For DUAL
	// requests it is |TS_GClock − TS_DUAL| (Fig. 2's Terr2); for GTM-mode
	// requests while the server is in DUAL it is 2× the largest error
	// bound observed during the transition (Listing 1's safeguard).
	Wait time.Duration
	// ServerMode lets requesters observe transitions.
	ServerMode ts.Mode
}

// Server is the GTM server state machine. Transport-agnostic: the cluster
// exposes it through a netsim endpoint via Service.
type Server struct {
	mu      sync.Mutex
	mode    ts.Mode
	last    ts.Timestamp // last issued timestamp (GTM counter / DUAL values)
	tsMax   ts.Timestamp // max timestamp issued or reported, across modes
	terrMax time.Duration

	issuedGTM  int64
	issuedDual int64
	reports    int64
}

// NewServer returns a server in GTM mode with the counter at zero.
func NewServer() *Server { return &Server{mode: ts.ModeGTM} }

// Mode returns the server's current mode.
func (s *Server) Mode() ts.Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// SetMode transitions the server. Callers (the transition controller) are
// responsible for ordering and for the DUAL-mode dwell time; the server
// enforces the timestamp floors:
//
//	DUAL → GTM sets the counter to TSMax+1 so every new GTM timestamp
//	exceeds every previously issued timestamp (Fig. 3).
//	entering DUAL resets Terrmax tracking for this transition.
func (s *Server) SetMode(m ts.Mode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == s.mode {
		return
	}
	switch m {
	case ts.ModeDUAL:
		s.terrMax = 0
		if s.last > s.tsMax {
			s.tsMax = s.last
		}
	case ts.ModeGTM:
		if s.tsMax > s.last {
			s.last = s.tsMax
		}
		// Guarantee: all new TS_GTM > previous TS (Fig. 3). The +1 happens
		// on the first request.
	}
	s.mode = m
}

// TerrMax returns the largest error bound observed since entering DUAL
// mode. The controller dwells 2× this long before completing a GTM→GClock
// transition.
func (s *Server) TerrMax() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.terrMax
}

// TSMax returns the largest timestamp the server has issued or learned of.
func (s *Server) TSMax() ts.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last > s.tsMax {
		return s.last
	}
	return s.tsMax
}

// Handle processes one request.
func (s *Server) Handle(req Request) (Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if req.Report {
		s.reports++
		if u := req.GClock.Upper(); u > s.tsMax {
			s.tsMax = u
		}
		if req.GClock.Err > s.terrMax {
			s.terrMax = req.GClock.Err
		}
		return Response{ServerMode: s.mode}, nil
	}

	switch s.mode {
	case ts.ModeGTM:
		if req.Mode == ts.ModeDUAL || req.Mode == ts.ModeGClock {
			// A straggler from a previous transition: serve it the same
			// floor guarantee DUAL provides.
			return s.issueDualLocked(req), nil
		}
		// Respect TSMax raises from late GClock commit reports so GTM
		// timestamps stay above every clock-based timestamp ever issued.
		s.last = maxTS(s.last, s.tsMax) + 1
		s.tsMax = s.last
		s.issuedGTM++
		return Response{TS: s.last, ServerMode: s.mode}, nil

	case ts.ModeDUAL:
		if req.Mode == ts.ModeGTM {
			// Listing 1: GTM-mode transactions must wait at commit while
			// the server is in DUAL, or a later transaction on an
			// already-switched node could miss their updates.
			s.last = maxTS(s.last, s.tsMax) + 1
			s.tsMax = s.last
			s.issuedGTM++
			return Response{TS: s.last, Wait: 2 * s.terrMax, ServerMode: s.mode}, nil
		}
		return s.issueDualLocked(req), nil

	default: // ts.ModeGClock
		if req.Mode == ts.ModeGTM {
			return Response{ServerMode: s.mode}, ErrOldModeAborted
		}
		// Fig. 2: "GTMS: GClock mode — generate TS_DUAL for DUAL mode
		// transactions" issued by CNs that have not switched yet.
		return s.issueDualLocked(req), nil
	}
}

func (s *Server) issueDualLocked(req Request) Response {
	if req.GClock.Err > s.terrMax {
		s.terrMax = req.GClock.Err
	}
	t := maxTS(maxTS(s.last, s.tsMax), req.Floor)
	if u := req.GClock.Upper(); u > t {
		t = u
	}
	t++
	s.last = t
	s.tsMax = t
	s.issuedDual++

	// Terr2 = |TS_GClock − TS_DUAL| (Fig. 2): how far the issued timestamp
	// sits above the requester's clock, a floor's lift included; waiting that
	// long lets real time catch up to the timestamp before it commits.
	wait := time.Duration(t - req.GClock.Clock)
	if wait < 0 {
		wait = -wait
	}
	return Response{TS: t, Wait: wait, ServerMode: s.mode}
}

func maxTS(a, b ts.Timestamp) ts.Timestamp {
	if a > b {
		return a
	}
	return b
}

// Stats reports request counters.
type Stats struct {
	IssuedGTM  int64
	IssuedDual int64
	Reports    int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{IssuedGTM: s.issuedGTM, IssuedDual: s.issuedDual, Reports: s.reports}
}

// EndpointName is the netsim address the GTM service registers under.
const EndpointName = "gtm"

// reqSize approximates the wire size of a timestamp request/response.
const reqSize = 32

// Service exposes a Server on a network.
type Service struct {
	server *Server
	ep     *netsim.Endpoint
}

// Serve registers the server in the given region and returns the service.
func Serve(n *netsim.Network, region string, s *Server) *Service {
	svc := &Service{server: s}
	svc.ep = n.Register(EndpointName, region, func(_ context.Context, m netsim.Message) (netsim.Message, error) {
		req, ok := m.Payload.(Request)
		if !ok {
			return netsim.Message{}, errors.New("gtm: bad request payload")
		}
		resp, err := s.Handle(req)
		if err != nil {
			return netsim.Message{}, err
		}
		return netsim.Message{Payload: resp, Size: reqSize}, nil
	})
	return svc
}

// Endpoint returns the underlying endpoint (for failure injection).
func (svc *Service) Endpoint() *netsim.Endpoint { return svc.ep }

// Client calls a GTM service across the simulated network from a fixed
// region. Every call pays the CN↔GTM round trip — the cost GClock mode
// eliminates.
type Client struct {
	net    *netsim.Network
	region string
}

// NewClient returns a client homed in region.
func NewClient(n *netsim.Network, region string) *Client {
	return &Client{net: n, region: region}
}

// Call sends one request and waits for the response.
func (c *Client) Call(ctx context.Context, req Request) (Response, error) {
	m, err := c.net.Call(ctx, c.region, EndpointName, netsim.Message{Payload: req, Size: reqSize})
	if err != nil {
		return Response{}, err
	}
	return m.Payload.(Response), nil
}

// Report sends a one-way GClock commit report. Errors are ignored beyond
// returning them; reports are advisory redundancy during transitions.
func (c *Client) Report(ctx context.Context, iv ts.Interval) error {
	_, err := c.Call(ctx, Request{Mode: ts.ModeGClock, GClock: iv, Report: true})
	return err
}
