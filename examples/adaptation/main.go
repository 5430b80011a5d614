// Adaptation: the §6.4 epilogue as a runnable scenario. Broad blocking is
// left on; the services respond by routing their traffic through an
// extensive proxy network, drastically increasing IP diversity and walking
// out from under the ASN-keyed countermeasure — while remaining perfectly
// attributable by client fingerprint. Hublaagram, unable to sustain its
// paid bursts, finally lists everything as out of stock.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"footsteps"
	"footsteps/internal/aas"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	cfg := footsteps.TestConfig()
	cfg.Days = 2 + 4 + 2*8 + 1
	cfg.Scale = 1.0 / 100
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	study := footsteps.NewStudy(cfg)
	fmt.Fprintln(w, "Phase 1: broad synchronous blocking against the services' home ASNs.")
	fmt.Fprintln(w, "Phase 2: the services move every session onto proxy networks.")
	res, err := study.Adaptation(4, 8)
	if err != nil {
		return err
	}

	labels := make([]string, 0, len(res.Phase1))
	for l := range res.Phase1 {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	fmt.Fprintf(w, "\n%-12s %16s %16s %12s %14s\n",
		"service", "blocked% pre", "blocked% post", "proxy ASNs", "attributable")
	for _, l := range labels {
		fmt.Fprintf(w, "%-12s %15.1f%% %15.1f%% %12d %14d\n",
			l,
			res.Phase1[l].BlockedFraction()*100,
			res.Phase2[l].BlockedFraction()*100,
			res.ProxyDiversity[l],
			res.StillAttributable[l])
	}

	fmt.Fprintln(w, "\nFindings (matching the paper's epilogue):")
	fmt.Fprintln(w, " - blocking rates collapse once traffic leaves the thresholded ASNs;")
	fmt.Fprintln(w, " - the evaded traffic spans many ASNs (the 'extensive proxy network');")
	fmt.Fprintln(w, " - attribution by client signature is untouched by the move;")
	fmt.Fprintf(w, " - Hublaagram out of stock: %v\n", res.HublaagramOutOfStock)
	return nil
}
