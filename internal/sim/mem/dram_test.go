package mem

import (
	"testing"

	"repro/internal/randx"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{BaseLatency: 0}, randx.New(1)); err == nil {
		t.Error("zero latency should error")
	}
	if _, err := New(Config{BaseLatency: 90, JitterMax: -1}, randx.New(1)); err == nil {
		t.Error("negative jitter should error")
	}
	if _, err := New(Config{BaseLatency: 90}, nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestNoJitterDeterministicLatency(t *testing.T) {
	d, err := New(Config{BaseLatency: 90}, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if done := d.Access(0x1000, 100); done != 190 {
		t.Errorf("done = %d, want 190", done)
	}
	if d.Stats().JitterCycles != 0 {
		t.Error("a zero jitter bound should inject nothing")
	}
}

func TestUniformJitterWithinBounds(t *testing.T) {
	d, err := New(Config{BaseLatency: 90, JitterMax: 4}, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		// Accesses far apart in time never queue.
		addr := uint64(i) * 64
		now := uint64(i) * 1000
		lat := d.Access(addr, now) - now
		if lat < 90 || lat > 94 {
			t.Fatalf("latency %d outside [90, 94]", lat)
		}
		seen[lat] = true
	}
	for want := uint64(90); want <= 94; want++ {
		if !seen[want] {
			t.Errorf("latency %d never observed in 2000 accesses", want)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []uint64 {
		d, _ := New(Config{BaseLatency: 90, JitterMax: 4}, randx.New(seed))
		out := make([]uint64, 50)
		for i := range out {
			out[i] = d.Access(uint64(i)*64, uint64(i)*1000)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at access %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different jitter sequences")
	}
}

func TestChannelContention(t *testing.T) {
	d, _ := New(Config{BaseLatency: 90}, randx.New(1))
	d1 := d.Access(0, 0)
	d2 := d.Access(channels*64, 0) // same channel, must queue behind the burst
	if d1 != 90 {
		t.Errorf("first access done = %d", d1)
	}
	if d2 != 90+burstCycles {
		t.Errorf("queued access done = %d, want %d", d2, 90+burstCycles)
	}
	if d.Stats().StallCycles != burstCycles {
		t.Errorf("stall cycles = %d, want %d", d.Stats().StallCycles, burstCycles)
	}
}

func TestMaxAccessTimeTracked(t *testing.T) {
	d, _ := New(Config{BaseLatency: 90, JitterMax: 4}, randx.New(3))
	d.Access(0, 0)
	d.Access(channels*64, 0) // queues: end-to-end ≥ 90 + burstCycles
	if d.Stats().MaxAccessTime < 90+burstCycles {
		t.Errorf("MaxAccessTime = %d, want ≥ %d", d.Stats().MaxAccessTime, 90+burstCycles)
	}
	if d.Stats().Accesses != 2 {
		t.Errorf("accesses = %d", d.Stats().Accesses)
	}
}

func TestChannelMappingByAddress(t *testing.T) {
	d, _ := New(Config{BaseLatency: 90}, randx.New(1))
	// Blocks 0 and channels map to channel 0; block 1 maps to channel 1:
	// the middle access must not queue behind the first.
	d0 := d.Access(0*64, 0)
	d1 := d.Access(1*64, 0)
	d2 := d.Access(channels*64, 0)
	if d0 != 90 || d1 != 90 {
		t.Errorf("independent channels should not queue: %d, %d", d0, d1)
	}
	if d2 != 90+burstCycles {
		t.Errorf("same-channel access should queue: %d, want %d", d2, 90+burstCycles)
	}
}
