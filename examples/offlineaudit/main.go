// Offlineaudit: capture a measurement window's full event stream to a
// compact binary file, then audit it offline — replaying the capture into
// the FRAUDAR-style dense-subgraph detector and comparing what a pure
// graph method finds against ground truth.
//
// This mirrors how a real abuse team works: the serving path only writes
// an event firehose; every detector and analysis runs downstream of the
// capture.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"footsteps"
	"footsteps/internal/aas"
	"footsteps/internal/eventio"
	"footsteps/internal/fraudar"
	"footsteps/internal/platform"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "footsteps-audit")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	capturePath := filepath.Join(dir, "events.fsev")

	// --- Capture phase: run 2 weeks with a recorder attached. ----------
	cfg := footsteps.TestConfig()
	cfg.Days = 14
	cfg.Scale = 1.0 / 1000
	study := footsteps.NewStudy(cfg)
	world := study.World()

	f, err := os.Create(capturePath)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := eventio.NewWriter(f)
	if err != nil {
		return err
	}
	rec.Attach(world.Plat.Log())

	world.RunAll()
	world.Sched.RunFor(14 * 24 * time.Hour)
	if err := rec.Flush(); err != nil {
		return err
	}
	info, _ := f.Stat()
	f.Close()
	fmt.Fprintf(w, "Captured %d events to %s (%.1f MB, %.1f bytes/event)\n",
		rec.Count(), capturePath, float64(info.Size())/1e6,
		float64(info.Size())/float64(rec.Count()))

	// Ground truth for scoring, straight from the engines.
	truth := make(map[fraudar.NodeID]bool)
	for _, svc := range world.Coll {
		for _, c := range svc.Customers() {
			truth[fraudar.NodeID(c.Account)] = true
		}
	}

	// --- Audit phase: replay the capture, no live state needed. --------
	in, err := os.Open(capturePath)
	if err != nil {
		return err
	}
	defer in.Close()
	r, err := eventio.NewReader(in)
	if err != nil {
		return err
	}
	graph := fraudar.NewBipartite()
	replayed := 0
	for {
		ev, err := r.Next()
		if err != nil {
			break
		}
		replayed++
		if ev.Outcome != platform.OutcomeAllowed || ev.Duplicate || ev.Enforcement {
			continue
		}
		if (ev.Type == platform.ActionLike || ev.Type == platform.ActionFollow) &&
			ev.Target != 0 && ev.Target != ev.Actor {
			graph.AddEdge(fraudar.NodeID(ev.Actor), fraudar.NodeID(ev.Target))
		}
	}
	fmt.Fprintf(w, "Replayed %d events → bipartite graph: %d sources, %d targets, %d edges\n",
		replayed, graph.Sources(), graph.Targets(), graph.Edges())

	blocks := fraudar.DetectK(graph, 3, 8)
	fmt.Fprintf(w, "\nDense blocks found: %d\n", len(blocks))
	for i, blk := range blocks {
		nodes := append(append([]fraudar.NodeID(nil), blk.Sources...), blk.Targets...)
		precision, recall := fraudar.PrecisionRecall(nodes, truth)
		fmt.Fprintf(w, "  block %d: %v — vs %s ground truth: precision %.0f%%, recall %.0f%%\n",
			i+1, blk, aas.NameHublaagram, precision*100, recall*100)
	}
	fmt.Fprintln(w, "\nThe collusion network is a dense block and falls out of the graph;")
	fmt.Fprintln(w, "reciprocity-abuse customers do not (their inbound actions are organic) —")
	fmt.Fprintln(w, "the asymmetry that motivates the paper's signal-based attribution.")
	return nil
}
