// Package transition orchestrates GlobalDB's zero-downtime, bi-directional
// switch between centralized (GTM) and clock-based (GClock) transaction
// management (Sec. III-A, Figs. 2 and 3).
//
// Both directions pass through DUAL mode, during which the GTM server issues
// TS_DUAL = max(TS_GTM, TS_GClock)+1 and prescribes waits that keep mixed
// GTM/DUAL/GClock transactions externally consistent. The cluster accepts
// new transactions throughout; only stale GTM-mode transactions that try to
// commit after the server has reached GClock mode abort.
package transition

import (
	"context"
	"fmt"
	"sync"
	"time"

	"globaldb/internal/gtm"
	"globaldb/internal/ts"
)

// Node is the view of a timestamp-issuing node the controller manipulates:
// the oracle of a computing node, or of a shard primary, which issues
// single-shard commit timestamps from its own clock under GClock.
type Node interface {
	// Name identifies the node in errors and logs.
	Name() string
	// Mode returns the node's current transaction management mode.
	Mode() ts.Mode
	// SetMode switches the node's mode for new transactions.
	SetMode(ts.Mode)
	// SetReporting toggles forwarding of GClock commit timestamps to the
	// GTM server during GClock→GTM transitions.
	SetReporting(bool)
	// ClockState returns the node's largest issued GClock timestamp with
	// its current error bound, for flooring TS_GTM.
	ClockState() ts.Interval
}

// Controller drives transitions over one GTM server and a set of nodes.
type Controller struct {
	server *gtm.Server

	// mu serializes transitions with each other and with membership
	// changes: a transition holds it from its first mode switch to its last,
	// DUAL dwell included, so a node can neither join half-way through the
	// protocol nor miss its final switch. Transitions are rare operator
	// actions; Replace waiting one out is the intended behaviour.
	mu    sync.Mutex
	nodes []Node

	// Sleep is injectable for tests; defaults to a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error

	// MinDwell floors the DUAL-mode dwell time so a transition on an idle
	// cluster (Terrmax == 0) still orders timestamps across modes.
	MinDwell time.Duration
}

// NewController returns a controller for server and nodes.
func NewController(server *gtm.Server, nodes ...Node) *Controller {
	return &Controller{
		server:   server,
		nodes:    nodes,
		Sleep:    sleepCtx,
		MinDwell: time.Millisecond,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Replace swaps old for fresh in the controller's node set — a shard primary
// that was promoted, moved or recovered comes with a new clock. old is
// retired first: switched to DUAL, where it can issue nothing more, and its
// clock state reported to the server, so the floor of a later GClock→GTM
// transition still covers every timestamp it handed out even though nobody
// will ask it again. fresh joins in the server's current mode.
func (c *Controller) Replace(old, fresh Node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old.SetMode(ts.ModeDUAL)
	if _, err := c.server.Handle(gtm.Request{Mode: ts.ModeGClock, GClock: old.ClockState(), Report: true}); err != nil {
		return fmt.Errorf("transition: retiring %s: %w", old.Name(), err)
	}
	fresh.SetMode(c.server.Mode())
	for i, n := range c.nodes {
		if n == old {
			c.nodes[i] = fresh
			return nil
		}
	}
	return fmt.Errorf("transition: %s is not a node of this controller", old.Name())
}

// ToGClock performs the GTM→GClock transition of Fig. 2:
//
//  1. Switch the GTM server to DUAL mode. From now on it tracks the largest
//     error bound (Terrmax) and timestamp (TSMax) it observes.
//  2. Switch every node to DUAL mode. New transactions exchange clock
//     readings with the server and honor its waits; in-flight GTM-mode
//     transactions receive commit waits of 2×Terrmax (Listing 1).
//  3. Dwell in DUAL for at least 2×Terrmax so every timestamp issued before
//     the transition lies in the past of every future clock reading.
//  4. Switch the server to GClock mode (old GTM transactions now abort),
//     then switch every node.
func (c *Controller) ToGClock(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.server.Mode() == ts.ModeGClock {
		return nil
	}
	c.server.SetMode(ts.ModeDUAL)
	for _, n := range c.nodes {
		n.SetMode(ts.ModeDUAL)
		// Seed Terrmax/TSMax even if the node runs no transactions during
		// the transition window.
		if _, err := c.server.Handle(gtm.Request{Mode: ts.ModeGClock, GClock: n.ClockState(), Report: true}); err != nil {
			return fmt.Errorf("transition: seeding clock state of %s: %w", n.Name(), err)
		}
	}

	dwell := 2 * c.server.TerrMax()
	if dwell < c.MinDwell {
		dwell = c.MinDwell
	}
	if err := c.Sleep(ctx, dwell); err != nil {
		return fmt.Errorf("transition: DUAL dwell interrupted: %w", err)
	}

	c.server.SetMode(ts.ModeGClock)
	for _, n := range c.nodes {
		n.SetMode(ts.ModeGClock)
	}
	return nil
}

// ToGTM performs the GClock→GTM transition of Fig. 3. It is simpler than
// the forward direction: the server learns the largest GClock timestamp in
// use and floors TS_GTM above it, so nothing aborts and no dwell is needed
// beyond collecting every node's state.
//
//  1. Switch the server to DUAL mode and enable commit reporting on every
//     node so in-flight GClock commits raise the server's TSMax.
//  2. Switch each node to DUAL, reporting its largest issued timestamp.
//  3. Switch the server to GTM (TS_GTM := TSMax + 1), then every node.
func (c *Controller) ToGTM(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.server.Mode() == ts.ModeGTM {
		return nil
	}
	c.server.SetMode(ts.ModeDUAL)
	for _, n := range c.nodes {
		n.SetReporting(true)
	}
	for _, n := range c.nodes {
		n.SetMode(ts.ModeDUAL)
		if _, err := c.server.Handle(gtm.Request{Mode: ts.ModeGClock, GClock: n.ClockState(), Report: true}); err != nil {
			return fmt.Errorf("transition: reporting clock state of %s: %w", n.Name(), err)
		}
	}

	// A short dwell lets in-flight GClock transactions that fetched their
	// commit timestamp just before their node switched report in. Their
	// timestamps are bounded by ClockState().Upper(), already reported, so
	// this is belt-and-suspenders rather than required for safety.
	if err := c.Sleep(ctx, c.MinDwell); err != nil {
		return fmt.Errorf("transition: DUAL dwell interrupted: %w", err)
	}

	c.server.SetMode(ts.ModeGTM)
	for _, n := range c.nodes {
		n.SetMode(ts.ModeGTM)
		n.SetReporting(false)
	}
	return nil
}
