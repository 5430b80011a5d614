package core

import (
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/clock"
	"footsteps/internal/detection"
	"footsteps/internal/fraudar"
	"footsteps/internal/platform"
)

// DetectionScore is precision/recall of one detector against one service's
// ground-truth customer set.
type DetectionScore struct {
	Precision float64
	Recall    float64
	Detected  int
}

// GraphDetectionResults compares the FRAUDAR-style dense-subgraph baseline
// against the study's signal-based attribution, scored on engine ground
// truth. The paper's motivating claim (§1–§2): graph methods catch dense
// collusion structure, but reciprocity abuse launders actions through
// ordinary users and leaves no dense block to find.
type GraphDetectionResults struct {
	Blocks []fraudar.Result

	// Fraudar scores the union of detected block nodes per service.
	Fraudar map[string]DetectionScore
	// Signature scores the classifier-driven customer identification.
	Signature map[string]DetectionScore
}

// GraphDetectionStudy runs both detectors over one measurement window on a
// fresh world.
func (w *World) GraphDetectionStudy() (*GraphDetectionResults, error) {
	classifier, err := w.TrainClassifier(2)
	if err != nil {
		return nil, err
	}
	tracker := detection.NewTracker(classifier, w.Plat.Now())
	tracker.WireTelemetry(w.Cfg.Telemetry)
	w.Plat.Log().Fold(tracker.Fold)

	// The baseline sees only the action graph — no signals. Build the
	// bipartite actor→target graph from every allowed like and follow.
	graph := fraudar.NewBipartite()
	w.Plat.Log().Fold(func(evs []platform.Event) {
		for i := range evs {
			ev := &evs[i]
			if ev.Outcome != platform.OutcomeAllowed || ev.Enforcement || ev.Duplicate {
				continue
			}
			if ev.Type != platform.ActionLike && ev.Type != platform.ActionFollow {
				continue
			}
			if ev.Target == 0 || ev.Target == ev.Actor {
				continue
			}
			graph.AddEdge(fraudar.NodeID(ev.Actor), fraudar.NodeID(ev.Target))
		}
	})

	w.RunAll()
	w.Sched.RunFor(time.Duration(w.Cfg.Days) * clock.Day)
	w.Plat.Log().Sync()

	res := &GraphDetectionResults{
		Fraudar:   make(map[string]DetectionScore),
		Signature: make(map[string]DetectionScore),
	}
	res.Blocks = fraudar.DetectK(graph, 3, 8)

	detected := make(map[platform.AccountID]bool)
	for _, blk := range res.Blocks {
		for _, id := range blk.Sources {
			detected[platform.AccountID(id)] = true
		}
		for _, id := range blk.Targets {
			detected[platform.AccountID(id)] = true
		}
	}

	// Ground truth per label from the engines themselves.
	truth := make(map[string]map[platform.AccountID]bool)
	addTruth := func(label string, id platform.AccountID) {
		m := truth[label]
		if m == nil {
			m = make(map[platform.AccountID]bool)
			truth[label] = m
		}
		m[id] = true
	}
	for name, svc := range w.Recip {
		for _, c := range svc.Customers() {
			addTruth(LabelFor(name), c.Account)
		}
	}
	for name, svc := range w.Coll {
		for _, c := range svc.Customers() {
			addTruth(LabelFor(name), c.Account)
		}
	}

	anyTruth := make(map[platform.AccountID]bool)
	for _, m := range truth {
		for id := range m {
			anyTruth[id] = true
		}
	}

	for label, m := range truth {
		res.Fraudar[label] = score(detected, m, anyTruth)

		sig := make(map[platform.AccountID]bool)
		collusion := label == aas.NameHublaagram || label == aas.NameFollowersgratis
		if svc := tracker.Service(label); svc != nil {
			for _, a := range svc.Accounts() {
				if a.HasOutbound() || collusion {
					sig[a.Account] = true
				}
			}
		}
		res.Signature[label] = score(sig, m, anyTruth)
	}
	return res, nil
}

// score computes recall against truth and precision against the union of
// all AAS accounts (a detected node that belongs to any service is not a
// false positive, merely attributed to a sibling).
func score(detected, truth, anyTruth map[platform.AccountID]bool) DetectionScore {
	var s DetectionScore
	s.Detected = len(detected)
	if len(detected) == 0 {
		return s
	}
	hitAny, hitThis := 0, 0
	for id := range detected {
		if anyTruth[id] {
			hitAny++
		}
		if truth[id] {
			hitThis++
		}
	}
	s.Precision = float64(hitAny) / float64(len(detected))
	if len(truth) > 0 {
		s.Recall = float64(hitThis) / float64(len(truth))
	}
	return s
}
