package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
)

// The fault injector is the chaos soak's transport (chaos_test.go): it
// wraps a dialer or listener's connections with deterministic, seeded
// faults, so the soak subjects the dist layer to slow, lossy and
// half-dead peers and every chaos run reproduces from a single seed.
//
// Determinism model: an injector derives one randx substream per
// connection, keyed by the connection's arrival index, and every fault
// decision on that connection is drawn sequentially from its stream. The
// fault *schedule* (which operation indices fault, and how) is therefore
// a pure function of (seed, profile, connection index, operation index);
// real goroutine interleaving still varies, but the dist layer's
// byte-identity contract must — and does — hold under any interleaving,
// which is exactly what the chaos soak asserts.
//
// Faults never bypass the peer's liveness machinery: stalls honour the
// read/write deadlines set on the wrapped connection, so a deadline-
// bounded recv or send observes a timeout exactly as it would against a
// genuinely wedged kernel socket.

// The injector's counters. No binary emits them; the soak reads them to
// check that faults fired.
const (
	metricChaosConns        = "spa_chaos_conns_total"
	metricChaosFaults       = "spa_chaos_faults_total"
	metricChaosRefusals     = "spa_chaos_refusals_total"
	metricChaosFaultsByKind = "spa_chaos_fault_total" // {kind}
)

// faultScenario is one kind of injected fault.
type faultScenario uint8

const (
	// faultDelay sleeps before delivering an operation (slow link).
	faultDelay faultScenario = iota
	// faultStall freezes the connection for StallFor, honouring any deadline
	// set on it, then kills it (half-dead peer).
	faultStall
	// faultClose abruptly closes the connection mid-stream.
	faultClose
	// faultPartial delivers a strict prefix of one write, then kills the
	// connection (truncated frame).
	faultPartial
	// faultDuplicate re-delivers a complete frame line — either the write in
	// flight (duplicate) or an earlier one (stale replay).
	faultDuplicate
	// faultRefuse rejects the connection at dial or accept time.
	faultRefuse

	numFaultScenarios
)

var faultScenarioNames = [numFaultScenarios]string{
	faultDelay: "delay", faultStall: "stall", faultClose: "close",
	faultPartial: "partial", faultDuplicate: "dup", faultRefuse: "refuse",
}

func (s faultScenario) String() string {
	if int(s) < len(faultScenarioNames) {
		return faultScenarioNames[s]
	}
	return fmt.Sprintf("scenario(%d)", uint8(s))
}

// faultScenarios lists every fault kind, in declaration order.
func faultScenarios() []faultScenario {
	out := make([]faultScenario, numFaultScenarios)
	for i := range out {
		out[i] = faultScenario(i)
	}
	return out
}

// faultProfile configures which faults an injector may fire and how hard.
// The zero value of every field selects a usable default.
type faultProfile struct {
	// Scenarios are the enabled fault kinds (empty = all).
	Scenarios []faultScenario
	// Rate is the per-operation fault probability in [0,1] (0 = 0.1).
	Rate float64
	// MaxDelay bounds faultDelay sleeps (0 = 10ms).
	MaxDelay time.Duration
	// StallFor is how long faultStall freezes a connection before killing it
	// (0 = 250ms). A deadline on the connection still fires first.
	StallFor time.Duration
	// GraceOps is the number of fault-free operations at the start of
	// every connection (<0 = none, 0 = 2), enough to let the hello
	// exchange through so chaos exercises steady-state paths too.
	GraceOps int
}

func (p faultProfile) rate() float64 {
	if p.Rate <= 0 {
		return 0.1
	}
	if p.Rate > 1 {
		return 1
	}
	return p.Rate
}

func (p faultProfile) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 10 * time.Millisecond
	}
	return p.MaxDelay
}

func (p faultProfile) stallFor() time.Duration {
	if p.StallFor <= 0 {
		return 250 * time.Millisecond
	}
	return p.StallFor
}

func (p faultProfile) graceOps() int {
	if p.GraceOps < 0 {
		return 0
	}
	if p.GraceOps == 0 {
		return 2
	}
	return p.GraceOps
}

// errRefused marks a connection the injector refused outright.
var errRefused = errors.New("fault injector: connection refused")

// errKilled marks a connection a fault tore down mid-stream.
var errKilled = errors.New("fault injector: connection killed")

// injector wraps dialers and listeners with a seeded fault schedule.
// One injector models one unreliable network vantage point; share it
// across connections so every connection gets its own substream.
type injector struct {
	prof faultProfile
	root *randx.Rand
	seq  atomic.Uint64
	o    *obs.Observer

	// Enabled scenario subsets per direction, computed once.
	readFaults  []faultScenario
	writeFaults []faultScenario
	refuse      bool
}

// newInjector builds an injector whose fault schedule is fully determined by
// seed and prof. o receives chaos counters and events; nil disables.
func newInjector(seed uint64, prof faultProfile, o *obs.Observer) *injector {
	in := &injector{prof: prof, root: randx.New(seed), o: o}
	enabled := prof.Scenarios
	if len(enabled) == 0 {
		enabled = faultScenarios()
	}
	for _, s := range enabled {
		switch s {
		case faultDelay, faultStall, faultClose:
			in.readFaults = append(in.readFaults, s)
			in.writeFaults = append(in.writeFaults, s)
		case faultPartial, faultDuplicate:
			in.writeFaults = append(in.writeFaults, s)
		case faultRefuse:
			in.refuse = true
		}
	}
	return in
}

// nextStream derives the substream for the next connection.
func (in *injector) nextStream() *randx.Rand {
	return in.root.Split(in.seq.Add(1))
}

// refused draws the connect-refusal decision from a connection's stream.
func (in *injector) refused(rng *randx.Rand) bool {
	if !in.refuse {
		return false
	}
	return rng.Float64() < in.prof.rate()
}

func (in *injector) countFault(s faultScenario, op string) {
	in.o.M().Counter(metricChaosFaults).Inc()
	in.o.M().CounterL(metricChaosFaultsByKind, obs.Labels{"kind": s.String()}).Inc()
	in.o.T().Event("chaos.fault", obs.Str("kind", s.String()), obs.Str("op", op))
}

// Dial has the signature of Coordinator.Dial: it refuses a
// deterministic fraction of connection attempts and wraps the rest with
// this injector's per-connection fault schedule.
func (in *injector) Dial(network, address string, timeout time.Duration) (net.Conn, error) {
	rng := in.nextStream()
	if in.refused(rng) {
		in.o.M().Counter(metricChaosRefusals).Inc()
		in.o.T().Event("chaos.refuse", obs.Str("addr", address))
		return nil, &net.OpError{Op: "dial", Net: network, Err: errRefused}
	}
	nc, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return in.wrap(nc, rng), nil
}

// Listen has the signature of Worker.listen: accepted
// connections are wrapped with per-connection fault schedules, and a
// deterministic fraction is closed on arrival (refused).
func (in *injector) Listen(network, address string) (net.Listener, error) {
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: ln, in: in}, nil
}

func (in *injector) wrap(nc net.Conn, rng *randx.Rand) *faultConn {
	in.o.M().Counter(metricChaosConns).Inc()
	return &faultConn{nc: nc, in: in, rng: rng, closed: make(chan struct{})}
}

// faultListener wraps Accept with refusal and connection wrapping.
type faultListener struct {
	net.Listener
	in *injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		rng := l.in.nextStream()
		if l.in.refused(rng) {
			l.in.o.M().Counter(metricChaosRefusals).Inc()
			l.in.o.T().Event("chaos.refuse", obs.Str("addr", nc.RemoteAddr().String()))
			nc.Close()
			continue
		}
		return l.in.wrap(nc, rng), nil
	}
}

// faultPlan is one drawn fault decision, with any randomness the fault
// needs pre-drawn so the schedule stays a pure function of op index.
type faultPlan struct {
	kind  faultScenario
	fire  bool
	delay time.Duration // faultDelay
	frac  float64       // faultPartial cut point in (0,1)
	stale bool          // faultDuplicate: replay the previous line, not this one
}

// faultConn wraps a net.Conn with the injector's per-connection fault
// schedule. Decisions are drawn under mu; blocking work (sleeps, stalls,
// underlying IO) happens outside it so reads and writes don't serialize.
type faultConn struct {
	nc net.Conn
	in *injector

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
func (c *faultConn) decide(faults []faultScenario) faultPlan {
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
	case faultDelay:
		p.delay = time.Duration(c.rng.Float64() * float64(c.in.prof.maxDelay()))
	case faultPartial:
		p.frac = c.rng.Float64()
	case faultDuplicate:
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
		case faultDelay:
			time.Sleep(plan.delay)
		case faultStall:
			c.mu.Lock()
			dl := c.rdl
			c.mu.Unlock()
			return 0, c.stallWait(dl)
		case faultClose:
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
		case faultDelay:
			time.Sleep(plan.delay)
		case faultStall:
			c.mu.Lock()
			dl := c.wdl
			c.mu.Unlock()
			return 0, c.stallWait(dl)
		case faultClose:
			c.kill()
			return 0, errKilled
		case faultPartial:
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
		case faultDuplicate:
			return c.writeDuplicated(p, plan.stale)
		}
	}
	n, err := c.nc.Write(p)
	if err == nil {
		c.noteWrite(p)
	}
	return n, err
}

// maxReplayLine caps the line a faultDuplicate fault may buffer and replay.
// A chunk_done frame carries every result of its chunk (up to 4096
// runs) and can run to hundreds of KB; replaying one wholesale would
// double the hot path's traffic and pin large buffers, and a long
// duplicate exercises nothing a short one doesn't. Oversized lines pass
// through unfaulted.
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

// TestScenarioNamesRoundTrip: every scenario's name maps back to it
// alone. The names label the by-kind fault counter and the chaos soak's
// subtests, so two kinds must never share one; a value outside the
// enumeration prints as scenario(n).
func TestScenarioNamesRoundTrip(t *testing.T) {
	byName := map[string]faultScenario{}
	for _, sc := range faultScenarios() {
		name := sc.String()
		if name == "" || strings.HasPrefix(name, "scenario(") {
			t.Errorf("scenario %d has no name (%q)", uint8(sc), name)
		}
		if prev, dup := byName[name]; dup {
			t.Errorf("scenarios %d and %d share the name %q", uint8(prev), uint8(sc), name)
		}
		byName[name] = sc
	}
	if len(byName) != int(numFaultScenarios) {
		t.Errorf("%d names for %d scenarios", len(byName), numFaultScenarios)
	}
	if got := numFaultScenarios.String(); got != fmt.Sprintf("scenario(%d)", uint8(numFaultScenarios)) {
		t.Errorf("out-of-range scenario prints %q", got)
	}
}

// TestScheduleDeterministic pins the core reproducibility claim: two
// injectors with the same seed and profile produce identical fault
// decision sequences for the same connection and operation indices.
func TestScheduleDeterministic(t *testing.T) {
	prof := faultProfile{Rate: 0.5, GraceOps: -1}
	mk := func() [][]faultPlan {
		in := newInjector(99, prof, nil)
		var all [][]faultPlan
		for conn := 0; conn < 4; conn++ {
			c := in.wrap(nil, in.nextStream())
			var plans []faultPlan
			for op := 0; op < 32; op++ {
				plans = append(plans, c.decide(in.writeFaults))
			}
			all = append(all, plans)
		}
		return all
	}
	a, b := mk(), mk()
	fired := 0
	for ci := range a {
		for oi := range a[ci] {
			if a[ci][oi] != b[ci][oi] {
				t.Fatalf("conn %d op %d: %+v != %+v (schedule not seed-deterministic)", ci, oi, a[ci][oi], b[ci][oi])
			}
			if a[ci][oi].fire {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("no faults fired at rate 0.5 over 128 ops")
	}
	// A different seed must yield a different schedule.
	in2 := newInjector(100, prof, nil)
	c2 := in2.wrap(nil, in2.nextStream())
	same := true
	for op := 0; op < 32; op++ {
		if c2.decide(in2.writeFaults) != a[0][op] {
			same = false
		}
	}
	if same {
		t.Error("seeds 99 and 100 produced identical schedules")
	}
}

func TestGraceOpsHoldFire(t *testing.T) {
	in := newInjector(1, faultProfile{Rate: 1, GraceOps: 5, Scenarios: []faultScenario{faultClose}}, nil)
	c := in.wrap(nil, in.nextStream())
	for op := 0; op < 5; op++ {
		if p := c.decide(in.writeFaults); p.fire {
			t.Fatalf("op %d faulted inside the grace window", op)
		}
	}
	if p := c.decide(in.writeFaults); !p.fire {
		t.Error("rate-1 profile did not fault after the grace window")
	}
}

// chaosPipe wraps one end of an in-memory pipe with the injector and
// pumps reads on the other end through a channel.
func chaosPipe(t *testing.T, in *injector) (faulty net.Conn, peer net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	fc := in.wrap(a, in.nextStream())
	t.Cleanup(func() { fc.Close(); b.Close() })
	return fc, b
}

func TestPartialWriteTruncatesAndKills(t *testing.T) {
	in := newInjector(3, faultProfile{Rate: 1, GraceOps: -1, Scenarios: []faultScenario{faultPartial}}, nil)
	fc, peer := chaosPipe(t, in)

	read := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(peer)
		read <- buf
	}()
	msg := []byte("{\"type\":\"ping\"}\n")
	n, err := fc.Write(msg)
	if err == nil {
		t.Fatal("partial-write fault should return an error")
	}
	if n <= 0 || n >= len(msg) {
		t.Fatalf("partial write delivered %d of %d bytes; want a strict prefix", n, len(msg))
	}
	select {
	case got := <-read:
		if !bytes.Equal(got, msg[:n]) {
			t.Errorf("peer read %q, want prefix %q", got, msg[:n])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never observed the truncated stream closing")
	}
	if _, err := fc.Write(msg); err == nil {
		t.Error("writes after a kill should fail")
	}
}

func TestDuplicateReplaysCompleteLines(t *testing.T) {
	// Probability 1, faultDuplicate only: every complete-line write is
	// delivered at least twice (dup of itself or replay of an earlier
	// line — both are legal protocol-level duplicates).
	in := newInjector(5, faultProfile{Rate: 1, GraceOps: -1, Scenarios: []faultScenario{faultDuplicate}}, nil)
	fc, peer := chaosPipe(t, in)

	lines := make(chan string, 16)
	go func() {
		buf := make([]byte, 4096)
		var acc []byte
		for {
			n, err := peer.Read(buf)
			acc = append(acc, buf[:n]...)
			for {
				i := bytes.IndexByte(acc, '\n')
				if i < 0 {
					break
				}
				lines <- string(acc[:i])
				acc = acc[i+1:]
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()
	if _, err := fc.Write([]byte("alpha\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Write([]byte("beta\n")); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	counts := map[string]int{}
	for l := range lines {
		counts[l]++
	}
	if counts["alpha"]+counts["beta"] < 3 {
		t.Errorf("no duplicate delivered at rate 1: %v", counts)
	}
	for l := range counts {
		if l != "alpha" && l != "beta" {
			t.Errorf("duplication corrupted the stream: unexpected line %q", l)
		}
	}
}

// lineCollector reads peer until EOF, splitting on newlines.
func lineCollector(peer net.Conn) chan string {
	lines := make(chan string, 64)
	go func() {
		buf := make([]byte, 4096)
		var acc []byte
		for {
			n, err := peer.Read(buf)
			acc = append(acc, buf[:n]...)
			for {
				i := bytes.IndexByte(acc, '\n')
				if i < 0 {
					break
				}
				lines <- string(acc[:i])
				acc = acc[i+1:]
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()
	return lines
}

// TestDuplicateNeverReplaysSplitFrameTail guards the v3 interaction: a
// frame bigger than the sender's buffer arrives as several Write calls,
// and the last one ends with '\n' without being a whole frame. Treating
// that tail as a replayable "complete line" — which the pre-midLine
// implementation did — corrupts the stream with a fragment duplicate.
func TestDuplicateNeverReplaysSplitFrameTail(t *testing.T) {
	in := newInjector(23, faultProfile{Rate: 1, GraceOps: -1, Scenarios: []faultScenario{faultDuplicate}}, nil)
	fc, peer := chaosPipe(t, in)
	lines := lineCollector(peer)

	// One frame split across two writes, like bufio flushing a full
	// buffer chunk and then the remainder.
	if _, err := fc.Write([]byte("headheadhead")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Write([]byte("tailtail\n")); err != nil {
		t.Fatal(err)
	}
	// A normal whole-line write afterwards is fair game for duplication.
	if _, err := fc.Write([]byte("small\n")); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	counts := map[string]int{}
	for l := range lines {
		counts[l]++
	}
	if counts["headheadheadtailtail"] != 1 {
		t.Errorf("split frame delivered %d times, want exactly once: %v", counts["headheadheadtailtail"], counts)
	}
	for l := range counts {
		if l != "headheadheadtailtail" && l != "small" {
			t.Errorf("duplication corrupted the stream: unexpected line %q", l)
		}
	}
}

// TestDuplicateCapsReplayedLineSize: whole lines longer than
// maxReplayLine pass through exactly once and are never recorded for
// stale replay — a multi-hundred-run chunk_done line must not be
// doubled on the wire.
func TestDuplicateCapsReplayedLineSize(t *testing.T) {
	in := newInjector(29, faultProfile{Rate: 1, GraceOps: -1, Scenarios: []faultScenario{faultDuplicate}}, nil)
	fc, peer := chaosPipe(t, in)
	lines := lineCollector(peer)

	big := strings.Repeat("b", maxReplayLine+100) + "\n"
	if _, err := fc.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := fc.Write([]byte("little\n")); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	counts := map[string]int{}
	for l := range lines {
		counts[l]++
	}
	if n := counts[strings.TrimSuffix(big, "\n")]; n != 1 {
		t.Errorf("oversized line delivered %d times, want exactly once", n)
	}
	if counts["little"] < 5 {
		t.Errorf("no duplicate of the small lines at rate 1: %v", counts["little"])
	}
}

func TestStallHonoursReadDeadline(t *testing.T) {
	in := newInjector(7, faultProfile{Rate: 1, GraceOps: -1, StallFor: 10 * time.Second, Scenarios: []faultScenario{faultStall}}, nil)
	fc, _ := chaosPipe(t, in)

	if err := fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := fc.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read returned %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall ignored the read deadline (took %v)", elapsed)
	}
}

func TestStallWithoutDeadlineKills(t *testing.T) {
	in := newInjector(7, faultProfile{Rate: 1, GraceOps: -1, StallFor: 30 * time.Millisecond, Scenarios: []faultScenario{faultStall}}, nil)
	fc, _ := chaosPipe(t, in)
	_, err := fc.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("stall without a deadline should kill the connection")
	}
	if _, err := fc.Read(make([]byte, 1)); err == nil {
		t.Error("reads after a stall kill should fail")
	}
}

func TestRefuseDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	reg := obs.NewRegistry()
	in := newInjector(11, faultProfile{Rate: 1, Scenarios: []faultScenario{faultRefuse}}, &obs.Observer{Metrics: reg})
	if _, err := in.Dial("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("rate-1 refuse profile should refuse every dial")
	}
	if v := reg.Counter(metricChaosRefusals).Value(); v == 0 {
		t.Error("refusal counter never incremented")
	}
}

func TestRefuseListener(t *testing.T) {
	in := newInjector(13, faultProfile{Rate: 1, Scenarios: []faultScenario{faultRefuse}}, nil)
	ln, err := in.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept() // blocks: every arrival is refused
		if err == nil {
			accepted <- c
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The refused connection is closed server-side: our read sees EOF.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused accept should close the connection")
	}
	select {
	case <-accepted:
		t.Fatal("rate-1 refuse profile surfaced a connection to Accept")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestCleanProfilePassesTrafficThrough(t *testing.T) {
	// Rate ~0 (tiny epsilon is impossible to hit in a few ops): wrapped
	// traffic must be byte-transparent.
	in := newInjector(17, faultProfile{Rate: 1e-12, GraceOps: -1}, nil)
	fc, peer := chaosPipe(t, in)
	go fc.Write([]byte("hello\nworld\n"))
	buf := make([]byte, 12)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(peer, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello\nworld\n" {
		t.Errorf("clean profile mangled traffic: %q", buf)
	}
}

func TestFaultCounters(t *testing.T) {
	reg := obs.NewRegistry()
	in := newInjector(19, faultProfile{Rate: 1, GraceOps: -1, Scenarios: []faultScenario{faultClose}}, &obs.Observer{Metrics: reg})
	fc, _ := chaosPipe(t, in)
	fc.Write([]byte("x\n"))
	if v := reg.Counter(metricChaosConns).Value(); v != 1 {
		t.Errorf("conns counter = %d, want 1", v)
	}
	total := reg.Counter(metricChaosFaults).Value()
	if total == 0 {
		t.Error("fault counter never incremented")
	}
	// The per-kind labeled counter tracks the aggregate: all faults here
	// are faultClose, so the one labeled series carries the whole total.
	if v := reg.CounterL(metricChaosFaultsByKind, obs.Labels{"kind": faultClose.String()}).Value(); v != total {
		t.Errorf("fault{kind=close} = %d, want %d (the aggregate)", v, total)
	}
}
