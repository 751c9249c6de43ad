package faultx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestScenarioNamesRoundTrip: every scenario's name maps back to it
// alone. The names label the by-kind fault counter and the chaos soak's
// subtests, so two kinds must never share one; a value outside the
// enumeration prints as scenario(n).
func TestScenarioNamesRoundTrip(t *testing.T) {
	byName := map[string]Scenario{}
	for _, sc := range Scenarios() {
		name := sc.String()
		if name == "" || strings.HasPrefix(name, "scenario(") {
			t.Errorf("scenario %d has no name (%q)", uint8(sc), name)
		}
		if prev, dup := byName[name]; dup {
			t.Errorf("scenarios %d and %d share the name %q", uint8(prev), uint8(sc), name)
		}
		byName[name] = sc
	}
	if len(byName) != int(numScenarios) {
		t.Errorf("%d names for %d scenarios", len(byName), numScenarios)
	}
	if got := numScenarios.String(); got != fmt.Sprintf("scenario(%d)", uint8(numScenarios)) {
		t.Errorf("out-of-range scenario prints %q", got)
	}
}

// TestScheduleDeterministic pins the core reproducibility claim: two
// injectors with the same seed and profile produce identical fault
// decision sequences for the same connection and operation indices.
func TestScheduleDeterministic(t *testing.T) {
	prof := Profile{Rate: 0.5, GraceOps: -1}
	mk := func() [][]faultPlan {
		in := New(99, prof, nil)
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
	in2 := New(100, prof, nil)
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
	in := New(1, Profile{Rate: 1, GraceOps: 5, Scenarios: []Scenario{Close}}, nil)
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
func chaosPipe(t *testing.T, in *Injector) (faulty net.Conn, peer net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	fc := in.Wrap(a)
	t.Cleanup(func() { fc.Close(); b.Close() })
	return fc, b
}

func TestPartialWriteTruncatesAndKills(t *testing.T) {
	in := New(3, Profile{Rate: 1, GraceOps: -1, Scenarios: []Scenario{Partial}}, nil)
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
	// Probability 1, Duplicate only: every complete-line write is
	// delivered at least twice (dup of itself or replay of an earlier
	// line — both are legal protocol-level duplicates).
	in := New(5, Profile{Rate: 1, GraceOps: -1, Scenarios: []Scenario{Duplicate}}, nil)
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
	in := New(23, Profile{Rate: 1, GraceOps: -1, Scenarios: []Scenario{Duplicate}}, nil)
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
// stale replay — a multi-hundred-run result_batch line must not be
// doubled on the wire.
func TestDuplicateCapsReplayedLineSize(t *testing.T) {
	in := New(29, Profile{Rate: 1, GraceOps: -1, Scenarios: []Scenario{Duplicate}}, nil)
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
	in := New(7, Profile{Rate: 1, GraceOps: -1, StallFor: 10 * time.Second, Scenarios: []Scenario{Stall}}, nil)
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
	in := New(7, Profile{Rate: 1, GraceOps: -1, StallFor: 30 * time.Millisecond, Scenarios: []Scenario{Stall}}, nil)
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
	in := New(11, Profile{Rate: 1, Scenarios: []Scenario{Refuse}}, &obs.Observer{Metrics: reg})
	if _, err := in.Dial("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("rate-1 refuse profile should refuse every dial")
	}
	if v := reg.Counter(obs.MetricChaosRefusals).Value(); v == 0 {
		t.Error("refusal counter never incremented")
	}
}

func TestRefuseListener(t *testing.T) {
	in := New(13, Profile{Rate: 1, Scenarios: []Scenario{Refuse}}, nil)
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
	in := New(17, Profile{Rate: 1e-12, GraceOps: -1}, nil)
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
	in := New(19, Profile{Rate: 1, GraceOps: -1, Scenarios: []Scenario{Close}}, &obs.Observer{Metrics: reg})
	fc, _ := chaosPipe(t, in)
	fc.Write([]byte("x\n"))
	if v := reg.Counter(obs.MetricChaosConns).Value(); v != 1 {
		t.Errorf("conns counter = %d, want 1", v)
	}
	total := reg.Counter(obs.MetricChaosFaults).Value()
	if total == 0 {
		t.Error("fault counter never incremented")
	}
	// The per-kind labeled counter tracks the aggregate: all faults here
	// are Close, so the one labeled series carries the whole total.
	if v := reg.CounterL(obs.MetricChaosFaultsByKind, obs.Labels{"kind": Close.String()}).Value(); v != total {
		t.Errorf("fault{kind=close} = %d, want %d (the aggregate)", v, total)
	}
}
