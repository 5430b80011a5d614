package core

import (
	"fmt"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/clock"
	"footsteps/internal/detection"
	"footsteps/internal/intervention"
	"footsteps/internal/platform"
	"footsteps/internal/stats"
)

// DailySeries is one plotted line: a value per experiment day (NaN-free;
// days with no data carry zero and a false mask entry).
type DailySeries struct {
	Values []float64
	Seen   []bool
}

func newDailySeries(days int) DailySeries {
	return DailySeries{Values: make([]float64, days), Seen: make([]bool, days)}
}

// Figure5Data carries the narrow experiment's Boostgram follow dynamics:
// the median follows per participating user per day in each arm, plus the
// countermeasure threshold.
type Figure5Data struct {
	Days      int
	Threshold float64
	Block     DailySeries
	Delay     DailySeries
	Control   DailySeries
}

// EligibilitySeries carries a per-day eligible-action fraction for one
// experiment arm (Figures 6 and 7).
type EligibilitySeries struct {
	Days int
	Arms map[intervention.Assignment]DailySeries
}

// InterventionResults bundles a §6 experiment.
type InterventionResults struct {
	Thresholds detection.Thresholds
	Controller *intervention.Controller
	Tracker    *detection.Tracker

	// Figure5: Boostgram median follows/user/day (narrow experiment).
	Figure5 Figure5Data
	// Figure6: Hublaagram daily likes eligible for countermeasures.
	Figure6 EligibilitySeries
	// Figure7: Boostgram daily follows eligible (broad experiment).
	Figure7 EligibilitySeries

	// BenignTouched counts benign actions hit by countermeasures over the
	// whole experiment (the §6.2 false-positive budget).
	BenignTouched  int
	ExperimentDays int

	// Complaints models §6.2's observation channels: customers whose
	// service visibly fails (synchronous blocks) complain loudly to their
	// AAS; customers whose bought follows quietly vanish a day later
	// rarely notice. PlatformComplaints counts benign users appealing
	// false positives to the platform.
	Complaints         map[intervention.Assignment]int
	PlatformComplaints int
}

// experiment bins (fixed, arbitrary but deterministic).
const (
	blockBin   = 0
	delayBin   = 1
	controlBin = 2
)

// NarrowIntervention reproduces §6.3: after calibDays of threshold
// calibration with all services live, countermeasures run for weeks weeks
// against one block bin and one delay bin (≈10% of customers each), with a
// control bin observed untouched. Run it on a fresh world; the world's
// cfg.Days must cover calibDays + 7*weeks + 2 warmup days.
func (w *World) NarrowIntervention(calibDays, weeks int) (*InterventionResults, error) {
	return w.runIntervention(calibDays, weeks*7,
		intervention.NarrowPolicy(blockBin, delayBin, controlBin))
}

// BroadIntervention reproduces §6.4: delay for the first switchDay days,
// then block, applied to 90% of accounts with one control bin.
func (w *World) BroadIntervention(calibDays, days, switchDay int) (*InterventionResults, error) {
	return w.runIntervention(calibDays, days,
		intervention.BroadPolicy(controlBin, switchDay))
}

func (w *World) runIntervention(calibDays, expDays int, policy intervention.Policy) (*InterventionResults, error) {
	const warmup = 2
	if w.Cfg.Days < warmup+calibDays+expDays {
		return nil, fmt.Errorf("core: world window of %d days cannot cover %d experiment days",
			w.Cfg.Days, warmup+calibDays+expDays)
	}
	classifier, err := w.TrainClassifier(warmup)
	if err != nil {
		return nil, err
	}
	tracker := detection.NewTracker(classifier, w.Plat.Now())
	tracker.WireTelemetry(w.Cfg.Telemetry)
	w.Plat.Log().Fold(tracker.Fold)

	// Complaint model inputs: per-account visible failures.
	blockedSeen := make(map[platform.AccountID]int)   // AAS customers
	removedSeen := make(map[platform.AccountID]int)   // enforcement removals
	benignBlocked := make(map[platform.AccountID]int) // false positives
	w.Plat.Log().Fold(func(evs []platform.Event) {
		for i := range evs {
			ev := &evs[i]
			switch {
			case ev.Enforcement && ev.Type == platform.ActionUnfollow:
				removedSeen[ev.Actor]++
			case ev.Outcome == platform.OutcomeBlocked:
				if _, isAAS := classifier.Classify(*ev); isAAS {
					blockedSeen[ev.Actor]++
				} else {
					benignBlocked[ev.Actor]++
				}
			}
		}
	})

	// Calibration phase: services run, calibrator samples daily activity.
	cal := detection.NewCalibrator(classifier.Classify)
	w.Plat.Log().Subscribe(cal.Observe)
	w.Sched.EveryDay(23*time.Hour+55*time.Minute, calibDays, func(int) { cal.EndDay() })

	w.RunAll()
	w.Sched.RunFor(time.Duration(calibDays) * clock.Day)

	thresholds := cal.Compute()

	// Experiment phase: install the controller and run.
	expStart := w.Plat.Now()
	ctl := intervention.New(thresholds, classifier.Classify, policy, expStart, 24*time.Hour)
	ctl.WireTelemetry(w.Cfg.Telemetry)
	ctl.WireTrace(w.Cfg.Trace)
	w.SetExperimentGatekeeper(ctl)
	w.Sched.RunFor(time.Duration(expDays) * clock.Day)
	w.SetExperimentGatekeeper(nil)
	w.Plat.Log().Sync()

	res := &InterventionResults{
		Thresholds:     thresholds,
		Controller:     ctl,
		Tracker:        tracker,
		BenignTouched:  ctl.BenignTouched(),
		ExperimentDays: expDays,
	}
	res.Figure5 = w.figure5(tracker, thresholds, calibDays, expDays)
	res.Figure6 = eligibilitySeries(ctl, aas.NameHublaagram, platform.ActionLike, expDays)
	res.Figure7 = eligibilitySeries(ctl, aas.NameBoostgram, platform.ActionFollow, expDays)
	res.Complaints = w.complaintModel(policy, expDays, blockedSeen, removedSeen)
	for _, n := range benignBlocked {
		if n >= 3 {
			res.PlatformComplaints++ // a handful of appeals (§6.2)
		}
	}
	return res, nil
}

// complaintModel converts visible failures into customer complaints.
// Synchronous blocks are loud: the customer's dashboard shows failed
// actions, so sustained blocking almost always draws a complaint. The
// deferred removal is quiet: the only symptom is a follower count that
// sags a day later, which few customers connect to the service.
func (w *World) complaintModel(policy intervention.Policy, expDays int, blockedSeen, removedSeen map[platform.AccountID]int) map[intervention.Assignment]int {
	r := w.RNG.Split("complaints")
	out := make(map[intervention.Assignment]int)
	lastDay := expDays - 1
	if lastDay < 0 {
		lastDay = 0
	}
	for id, n := range blockedSeen {
		if n < 10 {
			continue
		}
		arm := policy(lastDay, intervention.BinOf(id))
		if r.Bool(0.7) {
			out[arm]++
		}
	}
	for id, n := range removedSeen {
		if n < 10 {
			continue
		}
		arm := policy(lastDay, intervention.BinOf(id))
		if r.Bool(0.05) {
			out[arm]++
		}
	}
	return out
}

// figure5 computes median follows per participating Boostgram account per
// day, per experiment arm.
func (w *World) figure5(tracker *detection.Tracker, th detection.Thresholds, calibDays, expDays int) Figure5Data {
	fig := Figure5Data{
		Days:    expDays,
		Block:   newDailySeries(expDays),
		Delay:   newDailySeries(expDays),
		Control: newDailySeries(expDays),
	}
	if v, ok := th.Lookup(aas.ASNBoostgramDC, platform.ActionFollow); ok {
		fig.Threshold = v
	}
	svc := tracker.Service(aas.NameBoostgram)
	if svc == nil {
		return fig
	}
	for d := 0; d < expDays; d++ {
		trackerDay := warmupless(calibDays) + d
		var block, delay, control []int
		for _, a := range svc.Accounts() {
			if !a.HasOutbound() {
				continue
			}
			n := a.OutboundOnDay(trackerDay, platform.ActionFollow)
			if n == 0 {
				continue
			}
			switch intervention.BinOf(a.Account) {
			case blockBin:
				block = append(block, n)
			case delayBin:
				delay = append(delay, n)
			case controlBin:
				control = append(control, n)
			}
		}
		set := func(s *DailySeries, vals []int) {
			if len(vals) == 0 {
				return
			}
			s.Values[d] = stats.MedianInts(vals)
			s.Seen[d] = true
		}
		set(&fig.Block, block)
		set(&fig.Delay, delay)
		set(&fig.Control, control)
	}
	return fig
}

// warmupless maps an experiment day offset to the tracker's day index:
// the tracker starts after warmup, then calibDays precede the experiment.
func warmupless(calibDays int) int { return calibDays }

func eligibilitySeries(ctl *intervention.Controller, label string, typ platform.ActionType, days int) EligibilitySeries {
	out := EligibilitySeries{Days: days, Arms: make(map[intervention.Assignment]DailySeries)}
	for _, arm := range []intervention.Assignment{
		intervention.AssignBlock, intervention.AssignDelay, intervention.AssignControl,
	} {
		s := newDailySeries(days)
		for d := 0; d < days; d++ {
			if frac, ok := ctl.EligibleFraction(d, label, typ, arm); ok {
				s.Values[d] = frac
				s.Seen[d] = true
			}
		}
		out.Arms[arm] = s
	}
	return out
}
