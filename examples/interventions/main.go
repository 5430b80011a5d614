// Interventions: run the §6 experiments — a narrow 10%-bin study with
// synchronous blocking versus deferred removal, then the broad 90%
// rollout — and print the Figure 5–7 day series.
//
// The headline result reproduces the paper's: blocking provokes immediate
// adaptation (the service discovers the threshold and hovers under it),
// while deferred removal goes unanswered.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"footsteps"
	"footsteps/internal/aas"
	"footsteps/internal/core"
	"footsteps/internal/intervention"
)

func cfgFor(days int) footsteps.Config {
	cfg := footsteps.TestConfig()
	cfg.Days = days
	cfg.Scale = 1.0 / 100
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	return cfg
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	// Narrow experiment: 5 calibration days, 3 weeks of countermeasures
	// against one block bin, one delay bin, one control bin.
	fmt.Fprintln(w, "=== Narrow intervention (§6.3) ===")
	narrow := footsteps.NewStudy(cfgFor(2 + 5 + 21))
	nres, err := narrow.NarrowIntervention(5, 3)
	if err != nil {
		return err
	}
	fmt.Fprint(w, footsteps.FormatIntervention(nres))

	blockLate := windowMean(nres.Figure5.Block, nres.Figure5.Days/2, nres.Figure5.Days)
	controlLate := windowMean(nres.Figure5.Control, nres.Figure5.Days/2, nres.Figure5.Days)
	fmt.Fprintf(w, "\nLate-experiment Boostgram medians: block arm %.1f follows/user/day, control %.1f (threshold %.0f)\n",
		blockLate, controlLate, nres.Figure5.Threshold)
	fmt.Fprintln(w, "→ the blocked service found the threshold and sits under it; the delay arm never noticed.")

	// Broad experiment: 90% of accounts, delay for six days, then block.
	fmt.Fprintln(w, "\n=== Broad intervention (§6.4) ===")
	broad := footsteps.NewStudy(cfgFor(2 + 5 + 14))
	bres, err := broad.BroadIntervention(5, 14, 6)
	if err != nil {
		return err
	}
	delayWeek := windowMean(bres.Figure7.Arms[intervention.AssignDelay], 1, 6)
	blockWeek := windowMean(bres.Figure7.Arms[intervention.AssignBlock], 9, 14)
	fmt.Fprintf(w, "Eligible Boostgram follows: %.0f%% during the delay week, %.0f%% after the block switch.\n",
		delayWeek*100, blockWeek*100)
	fmt.Fprintln(w, "→ switching from delay to block immediately told the service what to evade.")
	fmt.Fprintf(w, "\nBenign actions touched across both experiments: %d + %d\n",
		nres.BenignTouched, bres.BenignTouched)
	return nil
}

// windowMean averages the observed values of a day series over [from, to).
func windowMean(s core.DailySeries, from, to int) float64 {
	sum, n := 0.0, 0
	for d := from; d < to && d < len(s.Seen); d++ {
		if s.Seen[d] {
			sum += s.Values[d]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
