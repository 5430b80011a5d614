package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/honeypot"
	"footsteps/internal/intervention"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

func TestNewWorldWiring(t *testing.T) {
	cfg := TestConfig()
	cfg.GraphWrites = true
	w := NewWorld(cfg)
	if len(w.Recip) != 3 || len(w.Coll) != 1 {
		t.Fatalf("services: %d reciprocity, %d collusion", len(w.Recip), len(w.Coll))
	}
	names := w.ServiceNames()
	if len(names) != 4 {
		t.Fatalf("names %v", names)
	}
	if w.Pop.Size() < cfg.OrganicPopulation {
		t.Fatalf("population %d", w.Pop.Size())
	}
	if len(w.ProxyASNs) == 0 {
		t.Fatal("no proxy ASNs")
	}
}

// TestWorldStepEngineCountsOnTelemetry checks that a world gets a step
// engine, which carries the plan/apply phase word, and that the engine
// counts its sections on the configured telemetry registry.
func TestWorldStepEngineCountsOnTelemetry(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	cfg := TestConfig()
	cfg.Days, cfg.OrganicPopulation, cfg.PoolSize, cfg.VPNUsers = 2, 50, 40, 4
	cfg.Telemetry = reg
	w := NewWorld(cfg)
	if w.Steps == nil {
		t.Fatal("world has no step engine")
	}
	w.RunAll()
	if err := w.RunDays(1); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("step.sections").Value() == 0 || reg.Counter("step.intents").Value() == 0 {
		t.Errorf("a stepped day counted %d sections and %d intents; the engine is not wired to telemetry",
			reg.Counter("step.sections").Value(), reg.Counter("step.intents").Value())
	}
}

func TestWorldIncludesFollowersgratisOnRequest(t *testing.T) {
	cfg := TestConfig()
	cfg.IncludeFollowersgratis = true
	w := NewWorld(cfg)
	if _, ok := w.Coll[aas.NameFollowersgratis]; !ok {
		t.Fatal("Followersgratis missing")
	}
}

func TestLabelFor(t *testing.T) {
	if LabelFor(aas.NameInstalex) != LabelInstaStar || LabelFor(aas.NameInstazood) != LabelInstaStar {
		t.Fatal("franchises not merged")
	}
	if LabelFor(aas.NameBoostgram) != aas.NameBoostgram {
		t.Fatal("Boostgram relabeled")
	}
}

func TestTrainClassifierLearnsAllServices(t *testing.T) {
	cfg := TestConfig()
	cfg.GraphWrites = true
	w := NewWorld(cfg)
	classifier, err := w.TrainClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	labels := classifier.Labels()
	want := map[string]bool{LabelInstaStar: true, aas.NameBoostgram: true, aas.NameHublaagram: true}
	for _, l := range labels {
		delete(want, l)
	}
	if len(want) != 0 {
		t.Fatalf("classifier missing labels %v (got %v)", want, labels)
	}
}

func TestReciprocationStudyTable5Shape(t *testing.T) {
	cfg := TestConfig()
	cfg.GraphWrites = true
	cfg.PoolSize = 1500
	w := NewWorld(cfg)
	tbl, err := w.ReciprocationStudy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 3 services × 2 drive types × 2 kinds = 12 cells.
	if len(tbl.Cells) != 12 {
		t.Fatalf("cells %d", len(tbl.Cells))
	}
	for _, c := range tbl.Cells {
		if c.Outbound == 0 {
			t.Fatalf("cell %s/%v/%v drove no actions", c.Service, c.Kind, c.DriveType)
		}
		// Table 5 invariant: follows never reciprocated with likes.
		if c.DriveType == platform.ActionFollow && c.InLikeRate > 0.001 {
			t.Fatalf("follow drive produced like reciprocation %.4f", c.InLikeRate)
		}
	}
	// Follow→follow rates land near the paper's 10–16%.
	for _, svc := range []string{aas.NameBoostgram, aas.NameInstalex, aas.NameInstazood} {
		c, ok := tbl.Cell(svc, honeypot.Empty, platform.ActionFollow)
		if !ok {
			t.Fatalf("missing cell for %s", svc)
		}
		if c.InFollowRate < 0.06 || c.InFollowRate > 0.22 {
			t.Errorf("%s empty follow→follow %.3f, want ≈0.10–0.16", svc, c.InFollowRate)
		}
	}
	// Lived-in like→like beats empty like→like for every service.
	for _, svc := range []string{aas.NameBoostgram, aas.NameInstalex, aas.NameInstazood} {
		e, _ := tbl.Cell(svc, honeypot.Empty, platform.ActionLike)
		l, _ := tbl.Cell(svc, honeypot.LivedIn, platform.ActionLike)
		if l.InLikeRate <= e.InLikeRate {
			t.Errorf("%s lived-in like rate %.4f not above empty %.4f", svc, l.InLikeRate, e.InLikeRate)
		}
	}
	// The Instalex anomaly: like→follow reciprocation well above the
	// other services.
	ix, _ := tbl.Cell(aas.NameInstalex, honeypot.Empty, platform.ActionLike)
	bg, _ := tbl.Cell(aas.NameBoostgram, honeypot.Empty, platform.ActionLike)
	if ix.InFollowRate <= bg.InFollowRate*2 {
		t.Errorf("Instalex like→follow %.4f not anomalously above Boostgram %.4f", ix.InFollowRate, bg.InFollowRate)
	}
	// The formatted table renders every service.
	out := FormatTable5(tbl)
	for _, svc := range []string{"Instalex", "Instazood", "Boostgram"} {
		if !strings.Contains(out, svc) {
			t.Fatalf("formatted table missing %s:\n%s", svc, out)
		}
	}
}

func TestBusinessStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("business study is a multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 45
	cfg.Scale = 1.0 / 2000
	// The collusion network needs a big enough source pool that paid
	// bursts exceed the 160 likes/hour free cap; everything else stays
	// small.
	cfg.ScaleOverride = map[string]float64{aas.NameHublaagram: 4}
	w := NewWorld(cfg)
	res, err := w.BusinessStudy()
	if err != nil {
		t.Fatal(err)
	}

	// Table 6: all three labels present with plausible shapes.
	for _, label := range []string{LabelInstaStar, aas.NameBoostgram, aas.NameHublaagram} {
		s, ok := res.Table6[label]
		if !ok || s.Customers == 0 {
			t.Fatalf("no customers for %s", label)
		}
		if s.LongTerm == 0 {
			t.Fatalf("%s has no long-term customers", label)
		}
		ltFrac := float64(s.LongTerm) / float64(s.Customers)
		if ltFrac < 0.10 || ltFrac > 0.90 {
			t.Errorf("%s long-term fraction %.2f outside sanity band", label, ltFrac)
		}
		// "By far most of the actions come from long-term users" (§5.1).
		if s.LongActions < 0.6 {
			t.Errorf("%s long-term action share %.2f, want > 0.6", label, s.LongActions)
		}
	}
	// Hublaagram is the most popular service by an order of magnitude.
	if res.Table6[aas.NameHublaagram].Customers < 3*res.Table6[aas.NameBoostgram].Customers {
		t.Errorf("Hublaagram %d customers not dominating Boostgram %d",
			res.Table6[aas.NameHublaagram].Customers, res.Table6[aas.NameBoostgram].Customers)
	}

	// Table 7: operating countries from the catalog, ASN countries from
	// observed traffic.
	if len(res.Table7) != 3 {
		t.Fatalf("table 7 rows %d", len(res.Table7))
	}
	for _, row := range res.Table7 {
		if len(row.ASNCountries) == 0 {
			t.Errorf("%s has no observed ASN countries", row.Label)
		}
	}

	// Figure 2: each service's advertised country ranks first.
	first := func(label string) string {
		shares := res.Figure2[label]
		if len(shares) == 0 {
			return ""
		}
		return shares[0].Country
	}
	if got := first(aas.NameHublaagram); got != "IDN" && got != "OTHER" {
		t.Errorf("Hublaagram top country %q", got)
	}
	if got := first(aas.NameBoostgram); got != "USA" && got != "OTHER" {
		t.Errorf("Boostgram top country %q", got)
	}

	// Table 8: revenue flows, Insta* low/high bracket is ordered.
	if res.Table8Boostgram.Monthly <= 0 || res.Table8InstaLow.Monthly <= 0 {
		t.Fatalf("reciprocity revenue missing: %+v %+v", res.Table8Boostgram, res.Table8InstaLow)
	}

	// Table 9: the collusion categories all materialize.
	if res.Table9.NoOutboundAccounts == 0 {
		t.Error("no no-outbound buyers detected")
	}
	tierTotal := 0
	for _, n := range res.Table9.TierAccounts {
		tierTotal += n
	}
	if tierTotal == 0 {
		t.Error("no monthly tier customers detected")
	}
	if res.Table9.AdImpressions == 0 {
		t.Error("no ad impressions estimated")
	}
	if res.Table9.MonthlyHigh < res.Table9.MonthlyLow {
		t.Error("revenue range inverted")
	}

	// Table 11: likes dominate Boostgram and Hublaagram; Insta* leans
	// follows over likes (the paper's mix).
	bgMix := res.Table11[aas.NameBoostgram]
	if bgMix[platform.ActionLike] <= bgMix[platform.ActionFollow] {
		t.Errorf("Boostgram mix likes %.2f <= follows %.2f", bgMix[platform.ActionLike], bgMix[platform.ActionFollow])
	}
	instaMix := res.Table11[LabelInstaStar]
	if instaMix[platform.ActionFollow] <= instaMix[platform.ActionLike] {
		t.Errorf("Insta* mix follows %.2f <= likes %.2f", instaMix[platform.ActionFollow], instaMix[platform.ActionLike])
	}
	if instaMix[platform.ActionUnfollow] == 0 {
		t.Error("Insta* mix has no unfollows")
	}

	// Figures 3/4: targeting bias — targeted accounts follow more and are
	// followed less than random users.
	for _, label := range []string{LabelInstaStar, aas.NameBoostgram} {
		if res.Figure3[label] == nil || res.Figure3[label].Len() == 0 {
			t.Fatalf("no Figure 3 sample for %s", label)
		}
		if res.Figure3[label].Median() <= res.Figure3["Random"].Median() {
			t.Errorf("%s target out-degree median %.0f not above random %.0f",
				label, res.Figure3[label].Median(), res.Figure3["Random"].Median())
		}
		if res.Figure4[label].Median() >= res.Figure4["Random"].Median() {
			t.Errorf("%s target in-degree median %.0f not below random %.0f",
				label, res.Figure4[label].Median(), res.Figure4["Random"].Median())
		}
	}

	// The formatted report renders without panicking and mentions the
	// headline tables.
	out := FormatBusiness(res)
	for _, want := range []string{"Table 6", "Table 7", "Table 8", "Table 9", "Table 10", "Table 11", "Figure 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if !strings.Contains(FormatRevenueSummary(res), "$") {
		t.Fatal("revenue summary empty")
	}
}

func TestNarrowInterventionDynamics(t *testing.T) {
	if testing.Short() {
		t.Skip("intervention study is a multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 30
	cfg.Scale = 1.0 / 100 // enough Boostgram customers to populate bins
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08, // keep the million-account service small
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	w := NewWorld(cfg)
	res, err := w.NarrowIntervention(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure5.Threshold <= 0 {
		t.Fatal("no follow threshold for Boostgram ASN")
	}

	// The blocked arm adapts: late-experiment medians sit at or below the
	// threshold while the control arm stays at its organic plan rate.
	lateBlock, lateControl, n := 0.0, 0.0, 0
	for d := res.Figure5.Days / 2; d < res.Figure5.Days; d++ {
		if res.Figure5.Block.Seen[d] && res.Figure5.Control.Seen[d] {
			lateBlock += res.Figure5.Block.Values[d]
			lateControl += res.Figure5.Control.Values[d]
			n++
		}
	}
	if n == 0 {
		t.Fatal("no overlapping block/control days")
	}
	lateBlock /= float64(n)
	lateControl /= float64(n)
	if lateBlock > res.Figure5.Threshold*1.25 {
		t.Errorf("blocked arm median %.1f stayed above threshold %.1f", lateBlock, res.Figure5.Threshold)
	}
	// The control arm keeps operating at its organic plan rate (the
	// threshold is the 25th percentile of that activity, so the control
	// median sits near or above it — allow small-bin sampling noise).
	if lateControl < res.Figure5.Threshold*0.85 {
		t.Errorf("control arm median %.1f fell well below threshold %.1f — control must be untouched", lateControl, res.Figure5.Threshold)
	}
	// Delay arm: no visible signal, so it keeps operating above threshold
	// like the control.
	lateDelay, n2 := 0.0, 0
	for d := res.Figure5.Days / 2; d < res.Figure5.Days; d++ {
		if res.Figure5.Delay.Seen[d] {
			lateDelay += res.Figure5.Delay.Values[d]
			n2++
		}
	}
	if n2 > 0 {
		lateDelay /= float64(n2)
		if lateDelay < res.Figure5.Threshold {
			t.Errorf("delay arm median %.1f reacted (below threshold %.1f) — delay must be invisible", lateDelay, res.Figure5.Threshold)
		}
	}

	// Figure 6 shape: early in the experiment a healthy share of
	// Hublaagram's blocked-bin likes are eligible; Hublaagram's like-block
	// detector has a 3-week lag, so within this 3-week run it never reacts.
	earlyElig, lateElig, nE, nL := 0.0, 0.0, 0, 0
	blockSeries := res.Figure6.Arms[intervention.AssignBlock]
	for d := 0; d < res.Figure6.Days; d++ {
		if !blockSeries.Seen[d] {
			continue
		}
		if d < 7 {
			earlyElig += blockSeries.Values[d]
			nE++
		} else if d >= res.Figure6.Days-7 {
			lateElig += blockSeries.Values[d]
			nL++
		}
	}
	if nE == 0 || nL == 0 {
		t.Fatal("Figure 6 series empty")
	}
	if earlyElig/float64(nE) <= 0 {
		t.Error("no eligible Hublaagram likes early in experiment")
	}

	// False positives stay small: the 99th-percentile rule bounds benign
	// impact.
	if res.BenignTouched > 200 {
		t.Errorf("benign actions touched: %d", res.BenignTouched)
	}

	if !strings.Contains(FormatIntervention(res), "Figure 5") {
		t.Fatal("intervention report missing Figure 5")
	}
}

func TestBroadInterventionSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("intervention study is a multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 24
	cfg.Scale = 1.0 / 100
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	w := NewWorld(cfg)
	res, err := w.BroadIntervention(5, 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Week 1 (delay, invisible): eligible fraction in the treated arm
	// stays roughly at control levels. Week 2 (block): the services adapt
	// and the eligible fraction in the treated arm drops.
	avg := func(s DailySeries, from, to int) (float64, int) {
		sum, n := 0.0, 0
		for d := from; d < to && d < len(s.Seen); d++ {
			if s.Seen[d] {
				sum += s.Values[d]
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	delayArm := res.Figure7.Arms[intervention.AssignDelay]
	blockArm := res.Figure7.Arms[intervention.AssignBlock]
	week1, n1 := avg(delayArm, 1, 6)
	week2, n2 := avg(blockArm, 9, 14)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("figure 7 arms empty: %d %d", n1, n2)
	}
	if week1 <= 0 {
		t.Error("no eligible follows during delay week — delay should not suppress activity")
	}
	if week2 >= week1 {
		t.Errorf("eligible fraction did not drop after the block switch: week1 %.3f, week2 %.3f", week1, week2)
	}
}

func TestAdaptationStudyEvasion(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation study is a multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 22
	cfg.Scale = 1.0 / 100
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	w := NewWorld(cfg)
	res, err := w.AdaptationStudy(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{aas.NameBoostgram, aas.NameHublaagram} {
		p1, p2 := res.Phase1[label], res.Phase2[label]
		if p1.Attempted == 0 || p2.Attempted == 0 {
			t.Fatalf("%s: no like traffic in a phase (%+v, %+v)", label, p1, p2)
		}
		if p1.BlockedFraction() == 0 {
			t.Errorf("%s: no likes blocked before evasion", label)
		}
		// After the proxy move the countermeasure loses its grip.
		if p2.BlockedFraction() >= p1.BlockedFraction()/4 {
			t.Errorf("%s: blocked fraction %.3f after evasion, was %.3f — proxies should escape the ASN-keyed blocks",
				label, p2.BlockedFraction(), p1.BlockedFraction())
		}
		// But attribution still sees the traffic.
		if res.StillAttributable[label] == 0 {
			t.Errorf("%s: evaded traffic no longer attributable", label)
		}
	}
	// "Drastically increase IP diversity": evaded traffic spans many ASNs.
	if res.ProxyDiversity[aas.NameBoostgram] < 5 {
		t.Errorf("proxy diversity %d ASNs, want several", res.ProxyDiversity[aas.NameBoostgram])
	}
	if !res.HublaagramOutOfStock {
		t.Error("Hublaagram did not go out of stock")
	}
}

func TestFollowersgratisIsPrePoliced(t *testing.T) {
	// §5: "we exclude Followersgratis ... the service was already
	// well-policed by pre-existing abuse detection systems that prevent
	// high volumes of abuse originating from a small number of IP
	// addresses." Followersgratis concentrates on 4 addresses; Hublaagram
	// spreads over 48. Under the same per-IP budget, the former chokes.
	cfg := TestConfig()
	cfg.IncludeFollowersgratis = true
	cfg.GraphWrites = true
	cfg.IPDailyBudget = 120
	w := NewWorld(cfg)

	enroll := func(svc *aas.CollusionService, prefix string, n int) []*aas.Customer {
		var out []*aas.Customer
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s-%d", prefix, i)
			if _, err := w.Plat.RegisterAccount(name, "pw-"+name,
				platform.Profile{PhotoCount: 5, HasProfilePic: true, HasBio: true, HasName: true}, "IDN"); err != nil {
				t.Fatal(err)
			}
			c, err := svc.EnrollFree(name, "pw-"+name)
			if err != nil {
				t.Fatal(err)
			}
			c.EngagedUntil = c.EnrolledAt.Add(10 * 24 * time.Hour)
			out = append(out, c)
		}
		return out
	}
	fg := w.Coll[aas.NameFollowersgratis]
	hb := w.Coll[aas.NameHublaagram]
	// Lifecycle at zero scale: no managed customers, but the daily ticks
	// roll the sources' adaptation windows.
	fg.StartLifecycle(5, 0)
	hb.StartLifecycle(5, 0)
	fgCustomers := enroll(fg, "fg", 120)
	hbCustomers := enroll(hb, "hb", 120)

	// Every customer asks for one free follow quantum per day for 3 days.
	requested := map[string]int{}
	delivered := map[string]int{}
	for day := 0; day < 3; day++ {
		for i := range fgCustomers {
			n, _ := fg.RequestFree(fgCustomers[i], aas.OfferFollow)
			requested[aas.NameFollowersgratis] += fg.Spec().Collusion.FreeFollowQuantum
			delivered[aas.NameFollowersgratis] += n
			m, _ := hb.RequestFree(hbCustomers[i], aas.OfferFollow)
			requested[aas.NameHublaagram] += hb.Spec().Collusion.FreeFollowQuantum
			delivered[aas.NameHublaagram] += m
		}
		w.Sched.RunFor(24 * time.Hour)
	}

	fgRate := float64(delivered[aas.NameFollowersgratis]) / float64(requested[aas.NameFollowersgratis])
	hbRate := float64(delivered[aas.NameHublaagram]) / float64(requested[aas.NameHublaagram])
	if hbRate < 0.8 {
		t.Fatalf("Hublaagram delivery rate %.2f — the guard should not bite a 48-IP footprint", hbRate)
	}
	if fgRate > hbRate*0.7 {
		t.Fatalf("Followersgratis delivery rate %.2f vs Hublaagram %.2f — the per-IP guard should squeeze the 4-IP footprint", fgRate, hbRate)
	}
	if w.Guard.Throttled[fg.Spec().Fingerprint] == 0 {
		t.Fatal("guard recorded no Followersgratis throttling")
	}
}

func TestGraphDetectionBaselineAsymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("graph detection study is a multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 20
	cfg.Scale = 1.0 / 500
	cfg.GraphWrites = false
	w := NewWorld(cfg)
	res, err := w.GraphDetectionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) == 0 {
		t.Fatal("no dense blocks detected at all")
	}
	hubFraudar := res.Fraudar[aas.NameHublaagram]
	hubSig := res.Signature[aas.NameHublaagram]
	bgFraudar := res.Fraudar[aas.NameBoostgram]
	bgSig := res.Signature[aas.NameBoostgram]

	// The collusion network is a dense block: the graph baseline finds a
	// substantial share of its customers.
	if hubFraudar.Recall < 0.3 {
		t.Errorf("fraudar Hublaagram recall %.2f — a collusion network should be findable", hubFraudar.Recall)
	}
	// Reciprocity abuse launders through organic users: the graph method
	// does far worse there than on the collusion network, and far worse
	// than signals do.
	if bgFraudar.Recall > hubFraudar.Recall*0.8 {
		t.Errorf("fraudar Boostgram recall %.2f vs Hublaagram %.2f — expected a clear gap", bgFraudar.Recall, hubFraudar.Recall)
	}
	// Signal-based attribution dominates on both.
	if hubSig.Recall < 0.95 || bgSig.Recall < 0.95 {
		t.Errorf("signature recall hub=%.2f bg=%.2f, want ≈1.0", hubSig.Recall, bgSig.Recall)
	}
	if bgSig.Recall <= bgFraudar.Recall {
		t.Error("signals should beat the graph baseline on reciprocity abuse")
	}
	if hubSig.Precision < 0.99 || bgSig.Precision < 0.99 {
		t.Errorf("signature precision hub=%.2f bg=%.2f", hubSig.Precision, bgSig.Precision)
	}
}

func TestBusinessOverlapStats(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 30
	cfg.Scale = 1.0 / 500
	w := NewWorld(cfg)
	res, err := w.BusinessStudy()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Table6 {
		total += s.Customers
	}
	// §5.1: "overall, account overlap is small" — but present.
	if res.Overlap.RecipAndCollusion == 0 {
		t.Error("no reciprocity+Hublaagram overlap at all")
	}
	if frac := float64(res.Overlap.RecipAndCollusion) / float64(total); frac > 0.05 {
		t.Errorf("overlap fraction %.3f, should be small", frac)
	}
	if res.Overlap.AllThree > res.Overlap.RecipAndCollusion {
		t.Error("three-way overlap exceeds two-way")
	}
	if !strings.Contains(FormatBusiness(res), "multi-service overlap") {
		t.Error("report missing overlap line")
	}
}

func TestExportBusinessAndIntervention(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Days = 25
	cfg.Scale = 1.0 / 1000
	cfg.ScaleOverride = map[string]float64{aas.NameHublaagram: 2}
	w := NewWorld(cfg)
	res, err := w.BusinessStudy()
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportBusiness(res, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table6.tsv", "table7.tsv", "table8.tsv", "table9.tsv",
		"table10.tsv", "table11.tsv", "figure2.tsv", "figure3.tsv", "figure4.tsv"} {
		data, err := os.ReadFile(dir + "/" + f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Fatalf("%s has no data rows", f)
		}
	}
	// Figure 3 series rows are monotone CDF points.
	f3, _ := os.ReadFile(dir + "/figure3.tsv")
	if !strings.HasPrefix(string(f3), "sample\tx\tcdf\n") {
		t.Fatalf("figure3 header: %q", strings.SplitN(string(f3), "\n", 2)[0])
	}

	// Intervention export.
	w2 := NewWorld(benchNarrowCfg())
	ires, err := w2.NarrowIntervention(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportIntervention(ires, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"figure5.tsv", "figure6.tsv", "figure7.tsv",
		"figure3.svg", "figure4.svg", "figure5.svg", "figure6.svg", "figure7.svg"} {
		if _, err := os.Stat(dir + "/" + f); err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
	}
	svg, err := os.ReadFile(dir + "/figure5.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "polyline") {
		t.Fatal("figure5.svg is not a rendered chart")
	}
}

// benchNarrowCfg is a small intervention config shared by export tests.
func benchNarrowCfg() Config {
	cfg := TestConfig()
	cfg.Days = 2 + 4 + 7
	cfg.Scale = 1.0 / 200
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	return cfg
}

func TestSignalDriftChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 27
	cfg.Scale = 1.0 / 2000
	w := NewWorld(cfg)
	res, err := w.BusinessStudy()
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftChecks == 0 {
		t.Fatal("no drift checks ran")
	}
	if res.DriftFailures != 0 {
		t.Fatalf("%d of %d drift checks misattributed — signals changed mid-study", res.DriftFailures, res.DriftChecks)
	}
}

func TestComplaintAsymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 30
	cfg.Scale = 1.0 / 100
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	w := NewWorld(cfg)
	res, err := w.NarrowIntervention(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	block := res.Complaints[intervention.AssignBlock]
	delay := res.Complaints[intervention.AssignDelay]
	if block == 0 {
		t.Fatal("sustained blocking drew no complaints")
	}
	// §7: deferred interventions "are less likely to drive the customer
	// complaints that incentivize services to pursue adaptations".
	if delay >= block {
		t.Fatalf("delay complaints %d >= block complaints %d", delay, block)
	}
	if !strings.Contains(FormatIntervention(res), "complaints") {
		t.Fatal("report missing complaint line")
	}
}

func TestReplicateReciprocationStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed integration test")
	}
	cfg := TestConfig()
	cfg.GraphWrites = true
	cfg.PoolSize = 1200
	rep, err := ReplicateReciprocation(cfg, []uint64{1, 2, 3}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seeds) != 3 {
		t.Fatalf("seeds %v", rep.Seeds)
	}
	mean, std, ok := rep.Summary("Boostgram/E/follow→follow")
	if !ok {
		t.Fatalf("metric missing; have %v", rep.MetricNames())
	}
	// The measurement is stable across seeds: mean in the paper's band,
	// spread small relative to the mean.
	if mean < 0.06 || mean > 0.18 {
		t.Fatalf("mean follow reciprocation %.4f", mean)
	}
	if std > mean {
		t.Fatalf("cross-seed stddev %.4f exceeds mean %.4f", std, mean)
	}
	// Cross-channel zero invariant holds on every seed.
	for _, v := range rep.Metrics["Boostgram/E/follow→like"] {
		if v > 0.001 {
			t.Fatalf("follow→like %v on some seed", v)
		}
	}
	if !strings.Contains(rep.Format(), "replication across 3 seeds") {
		t.Fatal("Format header missing")
	}
}

func TestReplicateErrorPropagates(t *testing.T) {
	cfg := TestConfig()
	_, err := Replicate(cfg, []uint64{7}, func(w *World) (map[string]float64, error) {
		return nil, fmt.Errorf("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicationSummaryEdgeCases(t *testing.T) {
	r := &Replication{Metrics: map[string][]float64{"one": {5}}}
	mean, std, ok := r.Summary("one")
	if !ok || mean != 5 || std != 0 {
		t.Fatalf("single-sample summary %v %v %v", mean, std, ok)
	}
	if _, _, ok := r.Summary("missing"); ok {
		t.Fatal("missing metric reported ok")
	}
}

func TestEngagementStudyUplift(t *testing.T) {
	cfg := TestConfig()
	cfg.GraphWrites = true
	w := NewWorld(cfg)
	res, err := w.EngagementStudy(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlER <= 0 {
		t.Fatalf("control ER %v — organic baseline missing", res.ControlER)
	}
	// Paid like tiers multiply the metric the services sell against.
	if res.Uplift < 3 {
		t.Fatalf("engagement uplift %.2f×, want several-fold (treated %.2f vs control %.2f)",
			res.Uplift, res.TreatedER, res.ControlER)
	}
}

func TestEngagementStudyNeedsGraph(t *testing.T) {
	cfg := TestConfig() // GraphWrites false
	w := NewWorld(cfg)
	if _, err := w.EngagementStudy(2, 2); err == nil {
		t.Fatal("stateless world accepted an engagement study")
	}
}

func TestCalibrationChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	// Table 5 checks.
	wA := NewWorld(Table5CheckConfig())
	tbl, err := wA.ReciprocationStudy(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	report, ok := FormatFindings(CheckTable5(tbl))
	if !ok {
		t.Fatalf("Table 5 calibration failed:\n%s", report)
	}

	// Business checks.
	wB := NewWorld(BusinessCheckConfig())
	res, err := wB.BusinessStudy()
	if err != nil {
		t.Fatal(err)
	}
	report, ok = FormatFindings(CheckBusiness(res))
	if !ok {
		t.Fatalf("business calibration failed:\n%s", report)
	}
}

func TestFormatFindings(t *testing.T) {
	out, ok := FormatFindings([]Finding{
		{Name: "a", OK: true, Detail: "fine"},
		{Name: "b", OK: false, Detail: "broken"},
	})
	if ok {
		t.Fatal("overall OK with a failing finding")
	}
	if !strings.Contains(out, "[PASS] a") || !strings.Contains(out, "[FAIL] b") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestStabilitySeries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	cfg := TestConfig()
	cfg.Days = 40
	cfg.Scale = 1.0 / 800
	w := NewWorld(cfg)
	res, err := w.BusinessStudy()
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := res.Stability[LabelInstaStar]
	if !ok || len(ss.ActivePerDay) != 40 {
		t.Fatalf("stability series missing: %+v", ss)
	}
	// The long-term population is alive through the middle of the window.
	if ss.ActivePerDay[20] == 0 {
		t.Fatal("no active long-term customers mid-window")
	}
	// Births occur past day 0 (arrivals convert), and Insta* grows:
	// births at least match deaths (paper: >10% growth).
	if ss.MeanBirthRate() <= 0 {
		t.Fatalf("no long-term births: %+v", ss.Births)
	}
	if ss.MeanBirthRate() < ss.MeanDeathRate()*0.5 {
		t.Fatalf("Insta* shrinking hard: births %.2f deaths %.2f",
			ss.MeanBirthRate(), ss.MeanDeathRate())
	}
	if !strings.Contains(FormatBusiness(res), "birth and death rates") {
		t.Fatal("report missing stability table")
	}
}
