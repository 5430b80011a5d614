package core

import (
	"sort"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/clock"
	"footsteps/internal/detection"
	"footsteps/internal/honeypot"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/revenue"
	"footsteps/internal/stats"
)

// Table7Row is one service's location row.
type Table7Row struct {
	Label            string
	OperatingCountry string
	ASNCountries     []string
}

// BusinessResults bundles everything §5 reports: Tables 6–11 and
// Figures 2–4.
type BusinessResults struct {
	Classifier *detection.Classifier
	Tracker    *detection.Tracker
	WindowDays int

	// Table 6: customer split per label.
	Table6 map[string]revenue.Split
	// §5.1 narrative numbers: first-month long-term conversion rate and
	// long-term population growth across the window.
	Conversion map[string]float64
	Growth     map[string]float64

	// Table 7 rows in catalog order.
	Table7 []Table7Row

	// Figure 2: customer country shares per label.
	Figure2 map[string][]netsim.CountryFraction

	// Table 8: reciprocity revenue. Insta* carries a low/high range.
	Table8Boostgram revenue.ReciprocityEstimate
	Table8InstaLow  revenue.ReciprocityEstimate
	Table8InstaHigh revenue.ReciprocityEstimate

	// Table 9: Hublaagram revenue decomposition.
	Table9 revenue.CollusionEstimate

	// Table 10: new vs preexisting revenue share.
	Table10 map[string]revenue.NewVsPreexisting

	// Table 11: action mix per label, fractions summing to 1.
	Table11 map[string]map[platform.ActionType]float64

	// Figures 3/4: degree CDFs of AAS-targeted accounts vs random users.
	Figure3 map[string]*stats.CDF // out-degree (followees)
	Figure4 map[string]*stats.CDF // in-degree (followers)

	// Overlap: the §5.1 multi-service enrollment counts.
	Overlap OverlapStats

	// Signal drift re-verification (§5: "we also periodically register
	// additional trial honeypot accounts ... these signals are consistent
	// with our original honeypot accounts and also do not change").
	DriftChecks   int // classified events observed on drift honeypots
	DriftFailures int // events attributed to the wrong service

	// Stability: the §5.1 user-stability series per label — daily active
	// long-term customers plus long-term birth and death counts.
	Stability map[string]StabilitySeries
}

// StabilitySeries tracks one service's long-term population over the
// window: per-day active counts, first-appearance (birth) counts, and
// last-appearance (death) counts.
type StabilitySeries struct {
	ActivePerDay []int
	Births       []int
	Deaths       []int
}

// MeanBirthRate returns average long-term births per day over the middle
// of the window (edges are censored: early days absorb the initial cohort
// and late days cannot distinguish churn from the window ending).
func (s StabilitySeries) MeanBirthRate() float64 { return trimmedMean(s.Births) }

// MeanDeathRate returns average long-term deaths per day, middle-trimmed.
func (s StabilitySeries) MeanDeathRate() float64 { return trimmedMean(s.Deaths) }

func trimmedMean(xs []int) float64 {
	n := len(xs)
	if n < 6 {
		return 0
	}
	lo, hi := n/6, n-n/6
	sum := 0
	for _, v := range xs[lo:hi] {
		sum += v
	}
	return float64(sum) / float64(hi-lo)
}

// OverlapStats counts accounts enrolled with multiple services (§5.1).
type OverlapStats struct {
	AllThree          int // active in Insta*, Boostgram, and Hublaagram
	TwoReciprocity    int // in both reciprocity labels
	RecipAndCollusion int // in a reciprocity AAS and Hublaagram
}

// longTermRunDays returns the §5.1 long-term cutoff for a label.
func longTermRunDays(label string) int {
	if label == aas.NameHublaagram {
		return 4
	}
	return 7
}

// BusinessStudy runs the full §5 characterization: 2 warmup days to train
// the classifier from honeypots, then the cfg.Days measurement window with
// all services live, then every table and figure computed from the
// platform-side tracker. Run it on a fresh world.
func (w *World) BusinessStudy() (*BusinessResults, error) {
	classifier, err := w.TrainClassifier(2)
	if err != nil {
		return nil, err
	}
	windowStart := w.Plat.Now()
	tracker := detection.NewTracker(classifier, windowStart)
	tracker.WireTelemetry(w.Cfg.Telemetry)
	w.Plat.Log().Fold(tracker.Fold)

	drift := w.scheduleDriftChecks(classifier)

	w.RunAll()
	w.Sched.RunFor(time.Duration(w.Cfg.Days) * clock.Day)
	w.Plat.Log().Sync()

	res := &BusinessResults{
		Classifier: classifier,
		Tracker:    tracker,
		WindowDays: w.Cfg.Days,
		Table6:     make(map[string]revenue.Split),
		Conversion: make(map[string]float64),
		Growth:     make(map[string]float64),
		Figure2:    make(map[string][]netsim.CountryFraction),
		Table10:    make(map[string]revenue.NewVsPreexisting),
		Table11:    make(map[string]map[platform.ActionType]float64),
		Figure3:    make(map[string]*stats.CDF),
		Figure4:    make(map[string]*stats.CDF),
	}

	for _, label := range tracker.Labels() {
		svc := tracker.Service(label)
		cutoff := longTermRunDays(label)
		collusion := label == aas.NameHublaagram || label == aas.NameFollowersgratis
		res.Table6[label] = revenue.LongTermSplit(svc, cutoff, collusion)
		res.Conversion[label] = conversionRate(svc, cutoff, w.Cfg.Days, collusion)
		res.Growth[label] = longTermGrowth(svc, cutoff, w.Cfg.Days, collusion)
		res.Figure2[label] = w.customerCountries(svc, collusion)
		res.Table11[label] = actionMix(svc)
	}

	// Table 7: catalog order, ASNs observed by the classifier.
	seen := make(map[string]bool)
	for _, spec := range aas.Catalog() {
		label := LabelFor(spec.Name)
		if seen[label] || tracker.Service(label) == nil {
			continue
		}
		seen[label] = true
		row := Table7Row{Label: label, OperatingCountry: spec.OperatingCountry}
		for asn := range tracker.Service(label).ASNs {
			if info, ok := w.Reg.Info(asn); ok {
				row.ASNCountries = append(row.ASNCountries, info.Country)
			}
		}
		sort.Strings(row.ASNCountries)
		res.Table7 = append(res.Table7, row)
	}

	// Revenue over the final 30 days (or the whole window if shorter).
	from := w.Cfg.Days - 30
	if from < 0 {
		from = 0
	}
	to := w.Cfg.Days
	if insta := tracker.Service(LabelInstaStar); insta != nil {
		res.Table8InstaLow = revenue.EstimateReciprocity(insta,
			aas.SpecByName(aas.NameInstazood).Reciprocity, from, to)
		res.Table8InstaHigh = revenue.EstimateReciprocity(insta,
			aas.SpecByName(aas.NameInstalex).Reciprocity, from, to)
		res.Table10[LabelInstaStar] = revenue.SplitNewVsPreexisting(insta,
			aas.SpecByName(aas.NameInstazood).Reciprocity, from)
	}
	if bg := tracker.Service(aas.NameBoostgram); bg != nil {
		pricing := aas.SpecByName(aas.NameBoostgram).Reciprocity
		res.Table8Boostgram = revenue.EstimateReciprocity(bg, pricing, from, to)
		res.Table10[aas.NameBoostgram] = revenue.SplitNewVsPreexisting(bg, pricing, from)
	}
	if hb := tracker.Service(aas.NameHublaagram); hb != nil {
		pricing := aas.SpecByName(aas.NameHublaagram).Collusion
		res.Table9 = revenue.EstimateCollusion(hb, pricing, w.Cfg.Days)
		res.Table9.NoOutboundRevenue = float64(res.Table9.NoOutboundAccounts) * pricing.NoOutboundFee
		res.Table10[aas.NameHublaagram] = revenue.SplitCollusionNewVsPreexisting(hb, pricing, from)
	}

	// Figures 3/4: up to 1,000 targeted accounts per reciprocity label vs
	// 1,000 random organic users.
	for _, label := range []string{LabelInstaStar, aas.NameBoostgram} {
		svc := tracker.Service(label)
		if svc == nil {
			continue
		}
		targets := make([]platform.AccountID, 0, svc.Targets())
		for _, a := range svc.Accounts() {
			if a.Targeted() && w.Pop.IsMember(a.Account) {
				targets = append(targets, a.Account)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		if len(targets) > 1000 {
			idx := w.RNG.Split("fig34-"+label).Sample(len(targets), 1000)
			sampled := make([]platform.AccountID, len(idx))
			for i, j := range idx {
				sampled[i] = targets[j]
			}
			targets = sampled
		}
		res.Figure3[label] = stats.NewCDFInts(w.Pop.OutDegrees(targets))
		res.Figure4[label] = stats.NewCDFInts(w.Pop.InDegrees(targets))
	}
	random := w.Pop.RandomSample(1000)
	res.Figure3["Random"] = stats.NewCDFInts(w.Pop.OutDegrees(random))
	res.Figure4["Random"] = stats.NewCDFInts(w.Pop.InDegrees(random))

	res.Overlap = overlapStats(tracker)
	res.DriftChecks, res.DriftFailures = drift.checks(), drift.failures()
	res.Stability = stabilitySeries(tracker, w.Cfg.Days)
	return res, nil
}

// stabilitySeries computes the §5.1 per-day long-term population series.
func stabilitySeries(tracker *detection.Tracker, days int) map[string]StabilitySeries {
	out := make(map[string]StabilitySeries)
	for _, label := range tracker.Labels() {
		svc := tracker.Service(label)
		cutoff := longTermRunDays(label)
		collusion := label == aas.NameHublaagram || label == aas.NameFollowersgratis
		ss := StabilitySeries{
			ActivePerDay: make([]int, days),
			Births:       make([]int, days),
			Deaths:       make([]int, days),
		}
		var dayBuf []int
		for _, a := range svc.Accounts() {
			if !a.HasOutbound() && !collusion {
				continue
			}
			if a.MaxConsecutiveDays() <= cutoff {
				continue
			}
			dayBuf = a.AppendActiveDays(dayBuf[:0])
			active := dayBuf
			if len(active) == 0 {
				continue
			}
			for _, d := range active {
				if d >= 0 && d < days {
					ss.ActivePerDay[d]++
				}
			}
			if f := active[0]; f >= 0 && f < days {
				ss.Births[f]++
			}
			if l := active[len(active)-1]; l >= 0 && l < days {
				ss.Deaths[l]++
			}
		}
		out[label] = ss
	}
	return out
}

// driftMonitor tracks signal-consistency checks on re-registered
// honeypots.
type driftMonitor struct {
	expected map[platform.AccountID]string
	nChecks  int
	nFail    int
}

func (d *driftMonitor) checks() int   { return d.nChecks }
func (d *driftMonitor) failures() int { return d.nFail }

// scheduleDriftChecks periodically registers fresh trial honeypots with
// each service and verifies their traffic still classifies to the same
// label, deleting each honeypot a day after its service starts driving it.
func (w *World) scheduleDriftChecks(classifier *detection.Classifier) *driftMonitor {
	d := &driftMonitor{expected: make(map[platform.AccountID]string)}
	w.Plat.Log().Subscribe(func(ev platform.Event) {
		want, ok := d.expected[ev.Actor]
		if !ok || ev.Type == platform.ActionLogin || ev.Client == "mobile-official" {
			return
		}
		d.nChecks++
		if got, ok := classifier.Classify(ev); !ok || got != want {
			d.nFail++
		}
	})
	if w.Cfg.Days < 9 {
		return d
	}
	for _, frac := range []int{3, 3 * 2} {
		day := w.Cfg.Days * frac / 9 // days/3 and 2*days/3
		w.Sched.After(time.Duration(day)*clock.Day+5*time.Hour, func() {
			for _, name := range w.ServiceNames() {
				hp, err := w.Honeypots.Create(honeypot.Empty)
				if err != nil {
					continue
				}
				if svc, ok := w.Recip[name]; ok {
					if _, err := svc.EnrollTrial(hp.Username, hp.Password, aas.OfferLike); err != nil {
						continue
					}
				} else if svc, ok := w.Coll[name]; ok {
					c, err := svc.EnrollFree(hp.Username, hp.Password, aas.OfferLike)
					if err != nil {
						continue
					}
					svc.RequestFree(c, aas.OfferLike)
				}
				w.Honeypots.MarkEnrolled(hp, name)
				d.expected[hp.ID] = LabelFor(name)
				// Delete shortly after the service starts driving it.
				hpRef := hp
				w.Sched.After(26*time.Hour, func() {
					delete(d.expected, hpRef.ID)
					w.Honeypots.Delete(hpRef)
				})
			}
		})
	}
	return d
}

// overlapStats computes the §5.1 multi-service enrollment counts from the
// tracker's per-label customer sets.
func overlapStats(tracker *detection.Tracker) OverlapStats {
	customersOf := func(label string, includeInboundOnly bool) map[platform.AccountID]bool {
		out := make(map[platform.AccountID]bool)
		if svc := tracker.Service(label); svc != nil {
			for _, a := range svc.Accounts() {
				if a.HasOutbound() || includeInboundOnly {
					out[a.Account] = true
				}
			}
		}
		return out
	}
	insta := customersOf(LabelInstaStar, false)
	boost := customersOf(aas.NameBoostgram, false)
	hubla := customersOf(aas.NameHublaagram, true)

	var o OverlapStats
	for id := range insta {
		inBoost, inHubla := boost[id], hubla[id]
		if inBoost {
			o.TwoReciprocity++
		}
		if inBoost && inHubla {
			o.AllThree++
		}
		if inHubla {
			o.RecipAndCollusion++
		}
	}
	for id := range boost {
		if hubla[id] && !insta[id] {
			o.RecipAndCollusion++
		}
	}
	return o
}

// conversionRate estimates the fraction of customers first seen in the
// window's first month that became long-term (§5.1).
func conversionRate(svc *detection.ServiceActivity, cutoff, windowDays int, includeInboundOnly bool) float64 {
	horizon := 30
	if windowDays < horizon {
		horizon = windowDays
	}
	var newcomers, converted int
	var dayBuf []int
	for _, a := range svc.Accounts() {
		if !a.HasOutbound() && !includeInboundOnly {
			continue
		}
		dayBuf = a.AppendActiveDays(dayBuf[:0])
		days := dayBuf
		if len(days) == 0 || days[0] <= 1 || days[0] >= horizon {
			continue // active from the start = preexisting, or too late
		}
		newcomers++
		if a.MaxConsecutiveDays() > cutoff {
			converted++
		}
	}
	if newcomers == 0 {
		return 0
	}
	return float64(converted) / float64(newcomers)
}

// longTermGrowth compares the count of active long-term customers in an
// early-window day band against a late-window band; positive values mean
// the service grew.
func longTermGrowth(svc *detection.ServiceActivity, cutoff, windowDays int, includeInboundOnly bool) float64 {
	if windowDays < 20 {
		return 0
	}
	earlyDay := windowDays / 6
	lateDay := windowDays - windowDays/6
	var early, late int
	var dayBuf []int
	for _, a := range svc.Accounts() {
		if !a.HasOutbound() && !includeInboundOnly {
			continue
		}
		if a.MaxConsecutiveDays() <= cutoff {
			continue
		}
		dayBuf = a.AppendActiveDays(dayBuf[:0])
		days := dayBuf
		if len(days) == 0 {
			continue
		}
		if days[0] <= earlyDay && days[len(days)-1] >= earlyDay {
			early++
		}
		if days[0] <= lateDay && days[len(days)-1] >= lateDay {
			late++
		}
	}
	if early == 0 {
		return 0
	}
	return float64(late-early) / float64(early)
}

// customerCountries computes the Figure 2 distribution: the most frequent
// login country of each identified customer, with sub-5% countries folded
// into OTHER.
func (w *World) customerCountries(svc *detection.ServiceActivity, includeInboundOnly bool) []netsim.CountryFraction {
	counts := make(map[string]int)
	total := 0
	for _, a := range svc.Accounts() {
		if !a.HasOutbound() && !includeInboundOnly {
			continue
		}
		c, ok := w.Plat.MostFrequentLoginCountry(a.Account)
		if !ok || c == "" {
			c = "OTHER"
		}
		counts[c]++
		total++
	}
	if total == 0 {
		return nil
	}
	other := 0
	var out []netsim.CountryFraction
	for c, n := range counts {
		frac := float64(n) / float64(total)
		if c == "OTHER" || frac < 0.05 {
			other += n
			continue
		}
		out = append(out, netsim.CountryFraction{Country: c, Fraction: frac})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fraction != out[j].Fraction {
			return out[i].Fraction > out[j].Fraction
		}
		return out[i].Country < out[j].Country
	})
	if other > 0 {
		out = append(out, netsim.CountryFraction{Country: "OTHER", Fraction: float64(other) / float64(total)})
	}
	return out
}

// actionMix normalizes a service's action-type counts (Table 11).
func actionMix(svc *detection.ServiceActivity) map[platform.ActionType]float64 {
	total := 0
	for t, n := range svc.Actions {
		if platform.ActionType(t) == platform.ActionLogin {
			continue
		}
		total += n
	}
	out := make(map[platform.ActionType]float64)
	if total == 0 {
		return out
	}
	for t, n := range svc.Actions {
		if platform.ActionType(t) == platform.ActionLogin || n == 0 {
			continue
		}
		out[platform.ActionType(t)] = float64(n) / float64(total)
	}
	return out
}
