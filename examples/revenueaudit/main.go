// Revenueaudit: run the §5 business characterization and print the
// customer-base and revenue analyses (Tables 6–11, Figures 2–4), then
// extrapolate the revenue estimates back to paper scale.
//
// The paper's headline: the three large services gross over $1M per month
// combined, and most of it comes from repeat customers.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"footsteps"
)

var (
	days  = flag.Int("days", 60, "measurement window in days")
	scale = flag.Float64("scale", 1.0/1000, "customer-dynamics scale vs the paper")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	cfg := footsteps.TestConfig()
	cfg.Days = *days
	cfg.Scale = *scale
	// Keep the collusion network's source pool large enough that paid
	// like bursts exceed the 160/hour free cap (see DESIGN.md).
	cfg.ScaleOverride = map[string]float64{"Hublaagram": 2}

	fmt.Fprintf(w, "Running a %d-day window at 1/%.0f of paper scale...\n\n", *days, 1 / *scale)
	study := footsteps.NewStudy(cfg)
	res, err := study.Business()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, footsteps.FormatBusiness(res))
	fmt.Fprintln(w, footsteps.FormatRevenueSummary(res))

	// Extrapolate to paper scale. Hublaagram ran at 2× the base scale.
	recip := (res.Table8Boostgram.Monthly +
		(res.Table8InstaLow.Monthly+res.Table8InstaHigh.Monthly)/2) / *scale
	coll := (res.Table9.MonthlyLow + res.Table9.MonthlyHigh) / 2 / (*scale * 2)
	fmt.Fprintf(w, "Extrapolated to Instagram scale: ≈$%.0fk/month reciprocity + ≈$%.0fk/month Hublaagram = ≈$%.2fM/month\n",
		recip/1000, coll/1000, (recip+coll)/1e6)
	fmt.Fprintln(w, "(the paper estimates >$1M/month across the same three services)")
	return nil
}
