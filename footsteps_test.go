package footsteps

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"footsteps/internal/telemetry"
)

func TestStaticTablesRender(t *testing.T) {
	cases := map[string]string{
		FormatTable1(): "Instalex",
		FormatTable2(): "$99.00",
		FormatTable3(): "No collusion network",
		FormatTable4(): "Followersgratis",
	}
	for out, want := range cases {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestStudyReciprocationViaPublicAPI(t *testing.T) {
	cfg := TestConfig()
	cfg.GraphWrites = true
	study := NewStudy(cfg)
	tbl, err := study.Reciprocation(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != 12 {
		t.Fatalf("cells %d", len(tbl.Cells))
	}
	if !strings.Contains(FormatTable5(tbl), "Boostgram") {
		t.Fatal("formatted table incomplete")
	}
	if study.World() == nil {
		t.Fatal("World() nil")
	}
}

func TestStudyDeterminism(t *testing.T) {
	run := func() string {
		cfg := TestConfig()
		cfg.GraphWrites = true
		study := NewStudy(cfg)
		tbl, err := study.Reciprocation(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable5(tbl)
	}
	if a, b := run(), run(); a != b {
		t.Fatal("identical seeds produced different Table 5 output")
	}
}

// TestStudyReportGolden pins the faults-off business report to the
// exact bytes it produced before the fault-injection layer existed:
// the resilience plumbing (retry policies, breakers, re-login paths)
// must be inert when Config.Faults is nil. If this fails after an
// intentional report change, rerun with -v and copy the printed hash.
func TestStudyReportGolden(t *testing.T) {
	const want = "1e1f28aa74dd545c4b228a91417e1478730500032d0df851709f2c785c91a018"
	cfg := TestConfig()
	cfg.Days = 8
	cfg.OrganicPopulation = 400
	cfg.PoolSize = 300
	cfg.VPNUsers = 20
	study := NewStudy(cfg)
	res, err := study.Business()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(FormatBusiness(res)))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("faults-off business report moved:\n got  %s\n want %s", got, want)
	}
}

// TestStudyReportHashDeterminism is the end-to-end determinism
// regression: the full business report must hash identically across
// fresh World runs, and with telemetry on. Run with -cpu=1,4 in CI so the
// same assertions hold under different GOMAXPROCS.
func TestStudyReportHashDeterminism(t *testing.T) {
	smallCfg := func() Config {
		cfg := TestConfig()
		cfg.Days = 8
		cfg.OrganicPopulation = 400
		cfg.PoolSize = 300
		cfg.VPNUsers = 20
		return cfg
	}
	hash := func(cfg Config) string {
		study := NewStudy(cfg)
		res, err := study.Business()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(FormatBusiness(res)))
		return hex.EncodeToString(sum[:8])
	}
	want := hash(smallCfg())
	if again := hash(smallCfg()); again != want {
		t.Fatalf("two fresh runs hashed differently: %s vs %s", want, again)
	}

	// The pure-observer half of the contract: enabling telemetry must not
	// move the report hash either.
	cfg := smallCfg()
	cfg.Telemetry = telemetry.NewRegistry()
	if h := hash(cfg); h != want {
		t.Errorf("with telemetry: report hash %s differs from baseline %s", h, want)
	}
	if len(cfg.Telemetry.Snapshot().Counters) == 0 {
		t.Error("telemetry registry stayed empty; comparison is vacuous")
	}
}
