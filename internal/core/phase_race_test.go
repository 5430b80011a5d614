//go:build race

package core

import (
	"fmt"
	"strings"
	"testing"

	"footsteps/internal/platform"
	"footsteps/internal/step"
)

// TestPhaseGuardTripsOnPlanMutation checks the single-writer rule is
// enforced, not assumed: in a race-detector build, a platform or graph
// mutator called from a plan function — during a plan phase of the
// world's own engine — panics naming the mutator, while the same call
// from apply goes through.
func TestPhaseGuardTripsOnPlanMutation(t *testing.T) {
	t.Parallel()
	newWorld := func() (*World, *platform.Session) {
		w := NewWorld(NewTest(WithDays(2), WithOrganicPopulation(50), WithPoolSize(40), WithVPNUsers(4)))
		if _, err := w.Plat.RegisterAccount("guard-test", "pw", platform.Profile{}, "USA"); err != nil {
			t.Fatal(err)
		}
		s, err := w.Plat.Login("guard-test", "pw", platform.ClientInfo{})
		if err != nil {
			t.Fatal(err)
		}
		return w, s
	}
	for _, tc := range []struct {
		mutator string
		call    func(*World, *platform.Session)
	}{
		{"platform.Do", func(w *World, s *platform.Session) {
			s.Do(platform.Request{Action: platform.ActionFollow, Target: 1})
		}},
		{"platform.RegisterAccount", func(w *World, _ *platform.Session) {
			w.Plat.RegisterAccount("planned", "pw", platform.Profile{}, "USA")
		}},
		{"platform.Login", func(w *World, _ *platform.Session) {
			w.Plat.Login("guard-test", "pw", platform.ClientInfo{})
		}},
		{"platform.ResetPassword", func(w *World, s *platform.Session) {
			w.Plat.ResetPassword(s.Account(), "pw2")
		}},
		{"socialgraph.Follow", func(w *World, s *platform.Session) {
			w.Plat.Graph().Follow(s.Account(), 1)
		}},
		{"socialgraph.AddPost", func(w *World, s *platform.Session) {
			w.Plat.Graph().AddPost(s.Account(), w.Plat.Now())
		}},
	} {
		w, s := newWorld()
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			step.RunInto(w.Steps, nil, 1, func(int, func(struct{})) { tc.call(w, s) }, func(struct{}) {})
			return nil
		}()
		if msg == nil || !strings.Contains(fmt.Sprint(msg), tc.mutator) {
			t.Errorf("%s during plan: recovered %v, want a phase-guard panic naming the mutator", tc.mutator, msg)
		}

		w, s = newWorld()
		step.RunInto(w.Steps, nil, 1, func(_ int, emit func(struct{})) { emit(struct{}{}) },
			func(struct{}) { tc.call(w, s) })
	}
}
