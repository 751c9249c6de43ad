package manifest

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzManifest feeds arbitrary bytes to Load, the path every manifest a
// CLI reads or a tenant submits takes. Load must not panic. A manifest
// it accepts must survive Save → Load unchanged, and every file a
// campaign of it writes — report, telemetry journal and populations —
// must land directly in the output directory.
func FuzzManifest(f *testing.F) {
	var tpl bytes.Buffer
	if err := Template().Save(&tpl); err != nil {
		f.Fatal(err)
	}
	f.Add(tpl.Bytes())
	// The manifests CI's dist-e2e job runs.
	f.Add([]byte(`{"name": "e2e", "seed": 7, "scale": 0.05, "runs": 16,
		"entries": [{"benchmark": "swaptions"}, {"benchmark": "swaptions", "variant": "l2half"}],
		"analyses": [{"metric": "runtime_s", "f": 0.5, "c": 0.9}]}`))
	f.Add([]byte(`{"name": "tele", "seed": 11, "scale": 0.05, "runs": 48,
		"entries": [{"benchmark": "swaptions"}, {"benchmark": "swaptions", "variant": "l2half"}],
		"analyses": [{"metric": "runtime_s", "f": 0.5, "c": 0.9},
			{"metric": "runtime_s", "f": 0.5, "c": 0.9, "target_width": 1e-9, "max_samples": 48}]}`))
	// A name that once wrote outside the output directory.
	f.Add([]byte(`{"name": "../escaped", "seed": 1, "runs": 8,
		"entries": [{"benchmark": "swaptions"}],
		"analyses": [{"metric": "runtime_s", "f": 0.5, "c": 0.9}]}`))

	out := filepath.Join(f.TempDir(), "campaigns", "c00000001")
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("saving an accepted manifest: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("an accepted manifest does not load back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("Save → Load changed the manifest:\n%+v\nvs\n%+v", back, m)
		}
		r := &Runner{OutDir: out}
		paths := []string{r.ReportPath(m), r.TelemetryPath(m)}
		for _, e := range m.Entries {
			paths = append(paths, r.popPath(m, e))
		}
		for _, p := range paths {
			if filepath.Dir(p) != out {
				t.Fatalf("manifest %q writes %s, outside %s", m.Name, p, out)
			}
		}
	})
}
