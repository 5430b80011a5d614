package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/faults"
)

// TestSnapshotGoldenFSNAP2 pins the FSNAP2 bytes World.Snapshot writes,
// independently of the encoder: the resume grids compare one encoder run
// against another, so a layout drift both sides share would pass them.
// Each case hashes a day-3 snapshot of a TestConfig world at seed 7 —
// stateless defaults, and graph writes under the mixed fault scenario,
// which fills the graph, retry and breaker sections — the latter also
// after two days of honeypot training, which fills the honeypot section.
//
// A change to these hashes is a format change: bump persistence.Version
// and keep the old version restoring (docs/PERSISTENCE.md) rather than
// re-pinning.
func TestSnapshotGoldenFSNAP2(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  func() core.Config
		want string
	}{
		{"defaults", func() core.Config {
			cfg := core.TestConfig()
			cfg.Seed = 7
			return cfg
		}, "4cab7070ba44e5ba4f4b268a4c3010e9a3c2c3cdef997781ef1f2df6341edf15"},
		{"graph-writes-mixed-faults", func() core.Config {
			cfg := core.TestConfig()
			cfg.Seed = 7
			cfg.GraphWrites = true
			cfg.Faults = faults.MustScenario("mixed")
			return cfg
		}, "3741c68d9e437fc1047bb9c049b2b81aa8f8ce56984269100efbaa8bac02ca91"},
		{"graph-writes-mixed-faults-honeypots", func() core.Config {
			cfg := core.TestConfig()
			cfg.Seed = 7
			cfg.GraphWrites = true
			cfg.Faults = faults.MustScenario("mixed")
			return cfg
		}, "375c976d36edd10f778e7d7d36d44ab08f62668ddc2a7e084dc5701738c936e2"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := core.NewWorld(tc.cfg())
			w.RunAll()
			days := 3
			if strings.HasSuffix(tc.name, "-honeypots") {
				// Two days of honeypot training fill the honeypot
				// section, then one more day runs as the others do.
				if _, err := w.TrainClassifier(2); err != nil {
					t.Fatalf("train: %v", err)
				}
				days = 1
			}
			if err := w.RunDays(days); err != nil {
				t.Fatalf("run: %v", err)
			}
			var buf bytes.Buffer
			if err := w.Snapshot(&buf); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("FSNAP2 sha256 %s (%d bytes), pinned %s", got, buf.Len(), tc.want)
			}
		})
	}
}
