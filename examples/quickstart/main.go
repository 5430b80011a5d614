// Quickstart: build a small simulated world, register a honeypot account
// with one Account Automation Service, and watch the reciprocity-abuse
// machinery work — the §4 methodology in ~60 lines.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"footsteps"
	"footsteps/internal/aas"
	"footsteps/internal/honeypot"
	"footsteps/internal/platform"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	cfg := footsteps.TestConfig()
	cfg.GraphWrites = true // honeypot studies want full graph fidelity
	study := footsteps.NewStudy(cfg)
	world := study.World()

	// Create a lived-in honeypot: photos, profile picture, bio, a name,
	// and follows of a few high-profile accounts (§4.1.1).
	hp, err := world.Honeypots.Create(honeypot.LivedIn)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Created honeypot %q (account %d)\n", hp.Username, hp.ID)

	// Hand its credentials to Boostgram and request the follow service —
	// exactly what a customer does at registration (§3.3.1).
	boostgram := world.Recip[aas.NameBoostgram]
	customer, err := boostgram.EnrollTrial(hp.Username, hp.Password, aas.OfferFollow)
	if err != nil {
		return err
	}
	world.Honeypots.MarkEnrolled(hp, aas.NameBoostgram)
	fmt.Fprintf(w, "Enrolled with %s; free trial until %s\n",
		aas.NameBoostgram, customer.EngagedUntil.Format("2006-01-02"))

	// Run the simulation through the trial plus two days for delayed
	// organic reactions. The service drives outbound follows from the
	// honeypot toward its curated pool; some pool members follow back.
	world.Sched.RunFor(5 * 24 * time.Hour)

	out := hp.Outbound[platform.ActionFollow]
	in := hp.Inbound[platform.ActionFollow]
	fmt.Fprintf(w, "\nDuring the trial the service drove %d outbound follows.\n", out)
	fmt.Fprintf(w, "Organic users reciprocated with %d inbound follows.\n", in)
	fmt.Fprintf(w, "Reciprocation rate: %.1f%% (Table 5 reports ≈12%% for lived-in accounts)\n",
		hp.ReciprocationRate(platform.ActionFollow, platform.ActionFollow)*100)

	// End-of-study cleanup removes the honeypot and every action it took.
	if err := world.Honeypots.Delete(hp); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nHoneypot deleted; all of its actions removed from the platform.")
	return nil
}
