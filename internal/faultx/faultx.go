// Package faultx injects deterministic, seeded transport faults into
// net.Conn / net.Listener pairs, so the distributed campaign layer
// (internal/dist) can be soak-tested under realistic network pathology
// — slow, lossy, and half-dead peers — with every chaos run reproducible
// from a single seed.
//
// Determinism model: an Injector derives one randx substream per
// connection, keyed by the connection's arrival index, and every fault
// decision on that connection is drawn sequentially from its stream. The
// fault *schedule* (which operation indices fault, and how) is therefore
// a pure function of (seed, profile, connection index, operation index);
// real goroutine interleaving still varies, but the dist layer's
// byte-identity contract must — and does — hold under any interleaving,
// which is exactly what the chaos soak test asserts.
//
// Faults never bypass the peer's liveness machinery: stalls honour the
// read/write deadlines set on the wrapped connection, so a deadline-
// bounded recv or send observes a timeout exactly as it would against a
// genuinely wedged kernel socket.
package faultx

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
)

// Scenario is one kind of injected fault.
type Scenario uint8

const (
	// Delay sleeps before delivering an operation (slow link).
	Delay Scenario = iota
	// Stall freezes the connection for StallFor, honouring any deadline
	// set on it, then kills it (half-dead peer).
	Stall
	// Close abruptly closes the connection mid-stream.
	Close
	// Partial delivers a strict prefix of one write, then kills the
	// connection (truncated frame).
	Partial
	// Duplicate re-delivers a complete frame line — either the write in
	// flight (duplicate) or an earlier one (stale replay).
	Duplicate
	// Refuse rejects the connection at dial or accept time.
	Refuse

	numScenarios
)

var scenarioNames = [numScenarios]string{
	Delay: "delay", Stall: "stall", Close: "close",
	Partial: "partial", Duplicate: "dup", Refuse: "refuse",
}

func (s Scenario) String() string {
	if int(s) < len(scenarioNames) {
		return scenarioNames[s]
	}
	return fmt.Sprintf("scenario(%d)", uint8(s))
}

// Scenarios lists every fault kind, in declaration order.
func Scenarios() []Scenario {
	out := make([]Scenario, numScenarios)
	for i := range out {
		out[i] = Scenario(i)
	}
	return out
}

// Profile configures which faults an Injector may fire and how hard.
// The zero value of every field selects a usable default.
type Profile struct {
	// Scenarios are the enabled fault kinds (empty = all).
	Scenarios []Scenario
	// Rate is the per-operation fault probability in [0,1] (0 = 0.1).
	Rate float64
	// MaxDelay bounds Delay sleeps (0 = 10ms).
	MaxDelay time.Duration
	// StallFor is how long Stall freezes a connection before killing it
	// (0 = 250ms). A deadline on the connection still fires first.
	StallFor time.Duration
	// GraceOps is the number of fault-free operations at the start of
	// every connection (<0 = none, 0 = 2), enough to let the hello
	// exchange through so chaos exercises steady-state paths too.
	GraceOps int
}

func (p Profile) rate() float64 {
	if p.Rate <= 0 {
		return 0.1
	}
	if p.Rate > 1 {
		return 1
	}
	return p.Rate
}

func (p Profile) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 10 * time.Millisecond
	}
	return p.MaxDelay
}

func (p Profile) stallFor() time.Duration {
	if p.StallFor <= 0 {
		return 250 * time.Millisecond
	}
	return p.StallFor
}

func (p Profile) graceOps() int {
	if p.GraceOps < 0 {
		return 0
	}
	if p.GraceOps == 0 {
		return 2
	}
	return p.GraceOps
}

// ProfileFor returns a Profile enabling exactly the given scenarios.
func ProfileFor(scenarios ...Scenario) Profile {
	return Profile{Scenarios: scenarios}
}

// errRefused marks a connection the injector refused outright.
var errRefused = errors.New("faultx: connection refused by fault injector")

// errKilled marks a connection a fault tore down mid-stream.
var errKilled = errors.New("faultx: connection killed by fault injector")

// Injector wraps dialers and listeners with a seeded fault schedule.
// One Injector models one unreliable network vantage point; share it
// across connections so every connection gets its own substream.
type Injector struct {
	prof Profile
	root *randx.Rand
	seq  atomic.Uint64
	o    *obs.Observer

	// Enabled scenario subsets per direction, computed once.
	readFaults  []Scenario
	writeFaults []Scenario
	refuse      bool
}

// New builds an Injector whose fault schedule is fully determined by
// seed and prof. o receives chaos counters and events; nil disables.
func New(seed uint64, prof Profile, o *obs.Observer) *Injector {
	in := &Injector{prof: prof, root: randx.New(seed), o: o}
	enabled := prof.Scenarios
	if len(enabled) == 0 {
		enabled = Scenarios()
	}
	for _, s := range enabled {
		switch s {
		case Delay, Stall, Close:
			in.readFaults = append(in.readFaults, s)
			in.writeFaults = append(in.writeFaults, s)
		case Partial, Duplicate:
			in.writeFaults = append(in.writeFaults, s)
		case Refuse:
			in.refuse = true
		}
	}
	return in
}

// nextStream derives the substream for the next connection.
func (in *Injector) nextStream() *randx.Rand {
	return in.root.Split(in.seq.Add(1))
}

// refused draws the connect-refusal decision from a connection's stream.
func (in *Injector) refused(rng *randx.Rand) bool {
	if !in.refuse {
		return false
	}
	return rng.Float64() < in.prof.rate()
}

func (in *Injector) countFault(s Scenario, op string) {
	in.o.M().Counter(obs.MetricChaosFaults).Inc()
	in.o.M().CounterL(obs.MetricChaosFaultsByKind, obs.Labels{"kind": s.String()}).Inc()
	in.o.T().Event("faultx.fault", obs.Str("kind", s.String()), obs.Str("op", op))
}

// Dial has the signature of dist.Coordinator.Dial: it refuses a
// deterministic fraction of connection attempts and wraps the rest with
// this injector's per-connection fault schedule.
func (in *Injector) Dial(network, address string, timeout time.Duration) (net.Conn, error) {
	rng := in.nextStream()
	if in.refused(rng) {
		in.o.M().Counter(obs.MetricChaosRefusals).Inc()
		in.o.T().Event("faultx.refuse", obs.Str("addr", address))
		return nil, &net.OpError{Op: "dial", Net: network, Err: errRefused}
	}
	nc, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return in.wrap(nc, rng), nil
}

// Listen has the signature of the dist worker's listen seam: accepted
// connections are wrapped with per-connection fault schedules, and a
// deterministic fraction is closed on arrival (refused).
func (in *Injector) Listen(network, address string) (net.Listener, error) {
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: ln, in: in}, nil
}

// Wrap applies this injector's fault schedule to an existing connection
// (refusal does not apply; the connection already exists).
func (in *Injector) Wrap(nc net.Conn) net.Conn {
	return in.wrap(nc, in.nextStream())
}

func (in *Injector) wrap(nc net.Conn, rng *randx.Rand) *faultConn {
	in.o.M().Counter(obs.MetricChaosConns).Inc()
	return &faultConn{nc: nc, in: in, rng: rng, closed: make(chan struct{})}
}

// listener wraps Accept with refusal and connection wrapping.
type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		rng := l.in.nextStream()
		if l.in.refused(rng) {
			l.in.o.M().Counter(obs.MetricChaosRefusals).Inc()
			l.in.o.T().Event("faultx.refuse", obs.Str("addr", nc.RemoteAddr().String()))
			nc.Close()
			continue
		}
		return l.in.wrap(nc, rng), nil
	}
}

// faultPlan is one drawn fault decision, with any randomness the fault
// needs pre-drawn so the schedule stays a pure function of op index.
type faultPlan struct {
	kind  Scenario
	fire  bool
	delay time.Duration // Delay
	frac  float64       // Partial cut point in (0,1)
	stale bool          // Duplicate: replay the previous line, not this one
}

// faultConn wraps a net.Conn with the injector's per-connection fault
// schedule. Decisions are drawn under mu; blocking work (sleeps, stalls,
// underlying IO) happens outside it so reads and writes don't serialize.
type faultConn struct {
	nc net.Conn
	in *Injector

	mu       sync.Mutex
	rng      *randx.Rand
	ops      int
	lastLine []byte // last complete frame line written, for stale replay
	// midLine is true while the stream sits inside a frame line: the last
	// byte written was not '\n'. A frame larger than the sender's buffer
	// arrives as several Write calls, and only the first begins at a line
	// boundary — its newline-terminated tail must never be mistaken for a
	// complete frame and replayed.
	midLine  bool
	rdl, wdl time.Time

	closeOnce sync.Once
	closed    chan struct{}
	dead      atomic.Bool
}

// decide draws the next fault decision from the connection's stream.
func (c *faultConn) decide(faults []Scenario) faultPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.ops <= c.in.prof.graceOps() || len(faults) == 0 {
		return faultPlan{}
	}
	if c.rng.Float64() >= c.in.prof.rate() {
		return faultPlan{}
	}
	p := faultPlan{fire: true, kind: faults[c.rng.Intn(len(faults))]}
	switch p.kind {
	case Delay:
		p.delay = time.Duration(c.rng.Float64() * float64(c.in.prof.maxDelay()))
	case Partial:
		p.frac = c.rng.Float64()
	case Duplicate:
		p.stale = c.rng.Bernoulli(0.5)
	}
	return p
}

// kill tears the connection down as a fault consequence.
func (c *faultConn) kill() {
	c.dead.Store(true)
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
	})
}

// stallWait freezes the connection, honouring deadline: if the deadline
// fires first the connection survives and a timeout error is returned;
// otherwise the stall runs its course and the connection is killed.
func (c *faultConn) stallWait(deadline time.Time) error {
	stall := c.in.prof.stallFor()
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < stall {
			if until > 0 {
				t := time.NewTimer(until)
				defer t.Stop()
				select {
				case <-t.C:
				case <-c.closed:
					return net.ErrClosed
				}
			}
			return os.ErrDeadlineExceeded
		}
	}
	t := time.NewTimer(stall)
	defer t.Stop()
	select {
	case <-t.C:
		c.kill()
		return errKilled
	case <-c.closed:
		return net.ErrClosed
	}
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, errKilled
	}
	plan := c.decide(c.in.readFaults)
	if plan.fire {
		c.in.countFault(plan.kind, "read")
		switch plan.kind {
		case Delay:
			time.Sleep(plan.delay)
		case Stall:
			c.mu.Lock()
			dl := c.rdl
			c.mu.Unlock()
			return 0, c.stallWait(dl)
		case Close:
			c.kill()
			return 0, errKilled
		}
	}
	return c.nc.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, errKilled
	}
	plan := c.decide(c.in.writeFaults)
	if plan.fire {
		c.in.countFault(plan.kind, "write")
		switch plan.kind {
		case Delay:
			time.Sleep(plan.delay)
		case Stall:
			c.mu.Lock()
			dl := c.wdl
			c.mu.Unlock()
			return 0, c.stallWait(dl)
		case Close:
			c.kill()
			return 0, errKilled
		case Partial:
			if len(p) >= 2 {
				k := 1 + int(plan.frac*float64(len(p)-1))
				if k >= len(p) {
					k = len(p) - 1
				}
				n, _ := c.nc.Write(p[:k])
				c.kill()
				return n, errKilled
			}
			c.kill()
			return 0, errKilled
		case Duplicate:
			return c.writeDuplicated(p, plan.stale)
		}
	}
	n, err := c.nc.Write(p)
	if err == nil {
		c.noteWrite(p)
	}
	return n, err
}

// maxReplayLine caps the line a Duplicate fault may buffer and replay.
// Batched result_batch frames (protocol v3) can run to hundreds of KB;
// replaying one wholesale would double the hot path's traffic and pin
// large buffers, and a long duplicate exercises nothing a short one
// doesn't. Oversized lines pass through unfaulted.
const maxReplayLine = 8 << 10

// writeDuplicated delivers p and then replays a complete frame line —
// the one just written, or an earlier one (stale replay). The replay
// fires only when p is one whole boundary-aligned line no longer than
// maxReplayLine: duplicating a fragment — including the newline-
// terminated *tail* of a frame that outgrew the sender's buffer and
// arrived split across writes — would corrupt the stream rather than
// exercise the peer's duplicate/stale-frame handling.
func (c *faultConn) writeDuplicated(p []byte, stale bool) (int, error) {
	var replay []byte
	c.mu.Lock()
	if !c.midLine && completeLine(p) && len(p) <= maxReplayLine {
		if stale && c.lastLine != nil {
			// Copy: lastLine's buffer is reused by later notes, and the
			// replay write happens outside the lock.
			replay = append([]byte(nil), c.lastLine...)
		} else {
			replay = p
		}
	}
	c.mu.Unlock()
	n, err := c.nc.Write(p)
	if err != nil {
		return n, err
	}
	if replay != nil {
		c.nc.Write(replay)
	}
	c.noteWrite(p)
	return n, nil
}

// completeLine reports whether b is exactly one newline-terminated
// frame, the unit the JSONL protocol can absorb as a duplicate.
func completeLine(b []byte) bool {
	if len(b) == 0 || b[len(b)-1] != '\n' {
		return false
	}
	for _, ch := range b[:len(b)-1] {
		if ch == '\n' {
			return false
		}
	}
	return true
}

// noteWrite tracks line framing across writes: whether the stream now
// sits mid-line, and — when p was one whole boundary-aligned line
// within the replay cap — remembers it for stale replay.
func (c *faultConn) noteWrite(p []byte) {
	if len(p) == 0 {
		return
	}
	c.mu.Lock()
	if !c.midLine && completeLine(p) && len(p) <= maxReplayLine {
		c.lastLine = append(c.lastLine[:0], p...)
	}
	c.midLine = p[len(p)-1] != '\n'
	c.mu.Unlock()
}

func (c *faultConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.nc.Close()
	})
	return err
}

func (c *faultConn) LocalAddr() net.Addr  { return c.nc.LocalAddr() }
func (c *faultConn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl, c.wdl = t, t
	c.mu.Unlock()
	return c.nc.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	c.mu.Unlock()
	return c.nc.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	c.mu.Unlock()
	return c.nc.SetWriteDeadline(t)
}
