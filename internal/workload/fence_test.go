package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/randx"
)

// -update rewrites testdata/programs.json from the current generators.
var updateFence = flag.Bool("update", false, "rewrite testdata/programs.json")

// fenceScales and fenceSeeds span the programs the fence pins: the
// scales the tests, the workloads and the paper runs use, at the default
// program seed (0x0BEEF) and one other.
var (
	fenceScales = []float64{0.01, 0.05, 0.2, 1.0}
	fenceSeeds  = []uint64{0x0BEEF, 7}
)

// customExample is examples/custom's pipeline, the one custom profile a
// binary builds.
func customExample() PipelineSpec {
	return PipelineSpec{
		Items: 48, QueueCapacity: 3,
		Shared:  RegionSpec{SizeBytes: 2 << 20, ZipfSkew: 0.9},
		Private: RegionSpec{SizeBytes: 512 << 10, HotFraction: 0.9, HotBlocks: 48, AdvanceEvery: 120},
		Stages: []PipelineStageSpec{
			{Threads: 2, ComputeMean: 250, ComputeJitter: 60, MemOps: 60, WriteFraction: 0.3, SharedFrac: 0.5, Branches: 4},
			{Threads: 3, ComputeMean: 600, ComputeJitter: 150, MemOps: 90, WriteFraction: 0.2, SharedFrac: 0.6, Branches: 6},
		},
	}
}

// fenceRecord pins one built program by its digest.
type fenceRecord struct {
	Profile string  `json:"profile"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
	Ops     int     `json:"ops"`
	SHA256  string  `json:"sha256"`
}

// programDigest hashes everything a run can read of prog: its name, every
// op's payload words, kind, taken and shared flags and claim, thread by
// thread, then the queues, the barriers and the shared stream.
func programDigest(prog *Program) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	word(uint64(len(prog.Name)))
	h.Write([]byte(prog.Name))
	word(uint64(len(prog.Threads)))
	for _, ops := range prog.Threads {
		word(uint64(len(ops)))
		for _, op := range ops {
			word(op.a)
			word(op.b)
			word(uint64(op.kind))
			word(bit(op.taken))
			word(bit(op.shared))
			word(uint64(op.claim))
		}
	}
	word(uint64(len(prog.Queues)))
	for _, q := range prog.Queues {
		word(uint64(q.ID))
		word(uint64(q.Capacity))
	}
	word(uint64(len(prog.Barriers)))
	for _, b := range prog.Barriers {
		word(uint64(b.ID))
		word(uint64(b.Participants))
	}
	word(uint64(len(prog.shared)))
	for _, a := range prog.shared {
		word(a)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fenceProfiles returns the nine built-in profiles and examples/custom's.
func fenceProfiles(t *testing.T) []Profile {
	t.Helper()
	var ps []Profile
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	custom, err := NewPipelineProfile("ingestor", customExample())
	if err != nil {
		t.Fatal(err)
	}
	return append(ps, custom)
}

// TestProgramFence: every program the fence spans hashes as recorded in
// testdata/programs.json, which was written before the generators were
// merged into one loop and two assemblers. The simulator's golden records
// see only what a run measures; this fence sees every op.
func TestProgramFence(t *testing.T) {
	var got []fenceRecord
	for _, p := range fenceProfiles(t) {
		for _, scale := range fenceScales {
			for _, seed := range fenceSeeds {
				prog := p.Build(scale, randx.New(seed))
				got = append(got, fenceRecord{p.Name, scale, seed, prog.Len(), programDigest(prog)})
			}
		}
	}
	path := filepath.Join("testdata", "programs.json")
	if *updateFence {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []fenceRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fence spans %d programs, %s records %d", len(got), path, len(want))
	}
	for i, g := range got {
		if g != want[i] {
			t.Errorf("%s: %s", fenceLabel(g), fenceDiff(g, want[i]))
		}
	}
}

func fenceLabel(r fenceRecord) string {
	return fmt.Sprintf("%s at scale %g, program seed %#x", r.Profile, r.Scale, r.Seed)
}

func fenceDiff(got, want fenceRecord) string {
	if fenceLabel(got) != fenceLabel(want) {
		return "recorded as " + fenceLabel(want)
	}
	return fmt.Sprintf("%d ops hash %s, recorded %d ops hash %s", got.Ops, got.SHA256[:12], want.Ops, want.SHA256[:12])
}
