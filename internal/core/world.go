package core

import (
	"fmt"
	"slices"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/behavior"
	"footsteps/internal/clock"
	"footsteps/internal/detection"
	"footsteps/internal/faults"
	"footsteps/internal/honeypot"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/socialgraph"
	"footsteps/internal/step"
	"footsteps/internal/telemetry"
)

// World is one fully wired simulated universe: the platform, the organic
// population, the AAS engines, and the study's honeypot framework.
type World struct {
	Cfg   Config
	RNG   *rng.RNG
	Reg   *netsim.Registry
	Sched *clock.Scheduler
	Plat  *platform.Platform
	Pop   *behavior.Population

	Recip map[string]*aas.ReciprocityService
	Coll  map[string]*aas.CollusionService

	Honeypots *honeypot.Framework

	// Guard is the pre-existing per-IP volume defense, installed as the
	// base gatekeeper when cfg.IPDailyBudget > 0.
	Guard *detection.IPVolumeGuard

	// ProxyASNs back the evasion proxy networks of the §6.4 epilogue.
	ProxyASNs []netsim.ASN

	// Steps is the engine behind per-tick plan/apply sections; it carries
	// the world's phase word.
	Steps *step.Engine

	// Faults is the installed fault injector; nil when cfg.Faults is
	// nil (injection off).
	Faults *faults.Injector

	vpnSessions []*platform.Session
	celebIDs    []platform.AccountID

	// graph is the social graph behind Plat, kept for snapshot/restore.
	graph *socialgraph.Graph

	// vpnRNGs/crossRNG/crossSeen are the mutable state of the VPN-user
	// and cross-enrollment daily passes. They live on the World rather
	// than in scheduler closures so snapshots can serialize them (see
	// internal/persistence).
	vpnRNGs   []*rng.RNG
	crossRNG  *rng.RNG
	crossSeen map[string]int

	// telemetryDays is the daily JSONL metric stream armed by
	// StreamTelemetryDaily; FinalizeTelemetry flushes and closes it.
	telemetryDays *telemetry.DayWriter

	// finalizers run (in registration order) inside FinalizeTelemetry,
	// so sinks that swallow errors mid-run — the metrics JSONL stream,
	// the durable event log — get to surface their first failure at
	// teardown. See OnFinalize.
	finalizers []func() error

	// daysRun counts the days RunDays has completed: the snapshot
	// cursor.
	daysRun int
}

// LabelFor maps a service name to the label the platform can attribute:
// the Insta* franchises share infrastructure and collapse into "Insta*".
func LabelFor(name string) string {
	if name == aas.NameInstalex || name == aas.NameInstazood {
		return "Insta*"
	}
	return name
}

// LabelInstaStar is the merged franchise label.
const LabelInstaStar = "Insta*"

// NewWorld builds and wires a world from the config. Nothing is scheduled
// yet; experiments drive the scheduler themselves.
func NewWorld(cfg Config) *World { return newWorld(cfg, false) }

// newWorld is NewWorld; with restoring set it builds the world a
// snapshot is about to be committed over, reserving the organic
// population's IDs rather than drawing its members (see RestoreWorld).
func newWorld(cfg Config, restoring bool) *World {
	if cfg.Days <= 0 || cfg.OrganicPopulation <= 0 || cfg.PoolSize <= 0 {
		panic(fmt.Sprintf("core: degenerate config %+v", cfg))
	}
	root := rng.New(cfg.Seed)
	reg := netsim.NewRegistry()
	proxyASNs := aas.RegisterNetworks(reg)
	sched := clock.NewScheduler(clock.New())

	pcfg := platform.DefaultConfig()
	pcfg.GraphWrites = cfg.GraphWrites
	graph := socialgraph.New()
	plat := platform.New(pcfg, graph, reg, sched)
	plat.WireTelemetry(cfg.Telemetry)
	// Span tracing wires in before any traffic, like telemetry: the first
	// login is already spanned. BindClock gives the tracer the simulated
	// clock so span identity derives from ticks, never wall time.
	if cfg.Trace != nil {
		cfg.Trace.BindClock(func() int64 { return sched.Clock().Now().UnixNano() })
		cfg.Trace.WireTelemetry(cfg.Telemetry)
		plat.SetTracer(cfg.Trace)
	}

	w := &World{
		Cfg:       cfg,
		RNG:       root,
		Reg:       reg,
		Sched:     sched,
		Plat:      plat,
		Recip:     make(map[string]*aas.ReciprocityService),
		Coll:      make(map[string]*aas.CollusionService),
		ProxyASNs: proxyASNs,
		graph:     graph,
	}
	// Fault injection wires in before any traffic exists, so the first
	// login is already subject to the schedule. The injector's seed comes
	// from a dedicated Split stream (pure; consumes no root draws), so a
	// faults-off run's draw sequences are untouched.
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			panic(fmt.Sprintf("core: fault profile: %v", err))
		}
		w.Faults = faults.NewInjector(cfg.Faults, root.Split("faults"))
		w.Faults.BindNetwork(reg)
		w.Faults.WireTelemetry(cfg.Telemetry)
		plat.SetFaultInjector(w.Faults)
	}

	// The engine carries the phase word that marks plan phases, and the
	// platform and graph check it on every mutation (the single-writer
	// rule; see step.Phase).
	phase := new(step.Phase)
	plat.SetPhase(phase)
	w.Steps = step.NewEngine(phase, cfg.Telemetry, cfg.Trace)

	// Organic population: honeypot monitoring must observe reciprocation,
	// so the framework subscribes before the population acts; subscriber
	// order otherwise does not matter.
	w.Honeypots = honeypot.New(plat, sched, root.Split("honeypot"))
	w.Honeypots.Wire()

	// The build registers the organic population, the celebrities, one
	// curated pool per reciprocity service and the VPN users, and RunAll
	// then each service's initial customer cohort. Reserving the tables
	// for all of them at once means no registration copies a column or
	// rehashes the username index, whether the world is built to run or
	// to restore a snapshot into.
	specs := aas.Catalog()
	if !cfg.IncludeFollowersgratis {
		specs = slices.DeleteFunc(specs, func(s *aas.Spec) bool { return s.Name == aas.NameFollowersgratis })
	}
	members, cohorts := cfg.OrganicPopulation, 0
	for _, spec := range specs {
		if spec.Technique == aas.TechniqueReciprocity {
			members += cfg.PoolSize
		}
		cohorts += spec.Customers.InitialCohort(cfg.scaleFor(spec.Name))
	}
	plat.Grow(members + celebrities + cfg.VPNUsers + cohorts)

	w.Pop = behavior.New(behavior.DefaultModel(), plat, sched, root.Split("population"))
	w.Pop.SetStepEngine(w.Steps)
	if restoring {
		w.Pop.ReserveMembers(cfg.OrganicPopulation)
	} else {
		w.Pop.Grow(members, members+celebrities)
		w.Pop.AddMembers(cfg.OrganicPopulation)
	}

	// High-profile celebrity accounts for lived-in honeypot setup.
	for i := 0; i < celebrities; i++ {
		id, err := plat.RegisterAccount(fmt.Sprintf("celebrity-%d", i), "pw-celeb",
			platform.Profile{PhotoCount: 40, HasProfilePic: true, HasBio: true, HasName: true}, "USA")
		if err != nil {
			panic(err)
		}
		w.celebIDs = append(w.celebIDs, id)
	}
	w.Honeypots.SetHighProfile(w.celebIDs)

	// Services with their curated pools.
	for _, spec := range specs {
		switch spec.Technique {
		case aas.TechniqueReciprocity:
			svc := aas.NewReciprocityService(spec, plat, sched, root.Split("svc-"+spec.Name))
			svc.SetStepEngine(w.Steps)
			svc.WireTelemetry(cfg.Telemetry)
			svc.WireTrace(cfg.Trace)
			if restoring {
				svc.SetTargetPool(w.Pop.ReserveCuratedPool(spec.Name, cfg.PoolSize))
			} else {
				svc.SetTargetPool(w.Pop.AddCuratedPool(spec.Name, spec.TargetPool, cfg.PoolSize))
			}
			w.Recip[spec.Name] = svc
		case aas.TechniqueCollusion:
			ipPool := 48
			if spec.Name == aas.NameFollowersgratis {
				ipPool = 4 // §5: concentrated on very few addresses
			}
			svc := aas.NewCollusionService(spec, plat, sched, root.Split("svc-"+spec.Name), ipPool)
			svc.SetStepEngine(w.Steps)
			svc.WireTelemetry(cfg.Telemetry)
			svc.WireTrace(cfg.Trace)
			w.Coll[spec.Name] = svc
		}
	}

	w.Pop.Wire()
	w.setupVPNUsers()

	if cfg.IPDailyBudget > 0 {
		w.Guard = detection.NewIPVolumeGuard(cfg.IPDailyBudget)
		w.Guard.WireTelemetry(cfg.Telemetry)
		w.Plat.SetGatekeeper(w.Guard)
	}

	// Automation runs from day 0 through the window plus slack, so trial
	// honeypots enrolled during warmup receive service immediately.
	// Iteration follows catalog order: scheduler insertion order is part
	// of the deterministic timeline.
	for _, name := range w.ServiceNames() {
		if svc, ok := w.Recip[name]; ok {
			svc.StartAutomation(cfg.Days + 20)
		}
		if svc, ok := w.Coll[name]; ok {
			svc.StartAutomation(cfg.Days + 20)
		}
	}
	return w
}

// celebrities is how many high-profile accounts a world registers for
// lived-in honeypot setup.
const celebrities = 30

// setupVPNUsers creates benign users whose traffic shares Hublaagram's US
// cloud ASN, so that ASN carries blended traffic and takes the
// 99th-percentile threshold rule.
func (w *World) setupVPNUsers() {
	r := w.RNG.Split("vpn")
	members := w.Pop.Members()
	for i := 0; i < w.Cfg.VPNUsers; i++ {
		name := fmt.Sprintf("vpn-user-%d", i)
		if _, err := w.Plat.RegisterAccount(name, "pw-"+name,
			platform.Profile{PhotoCount: 5, HasProfilePic: true, HasBio: true, HasName: true}, "USA"); err != nil {
			panic(err)
		}
		sess, err := w.Plat.Login(name, "pw-"+name, platform.ClientInfo{
			IP:          w.Reg.Allocate(aas.ASNHublaagramUS),
			Fingerprint: "mobile-official",
			API:         platform.APIPrivate,
		})
		if err != nil {
			panic(err)
		}
		w.vpnSessions = append(w.vpnSessions, sess)
	}
	if len(members) == 0 {
		return
	}
	// Each VPN user draws daily activity from a private forked stream, so
	// what one user does never depends on the others.
	w.vpnRNGs = make([]*rng.RNG, len(w.vpnSessions))
	for i := range w.vpnRNGs {
		w.vpnRNGs[i] = r.Fork(uint64(i))
	}
	type vpnOp struct {
		sess   *platform.Session
		like   bool
		target platform.AccountID
		post   platform.PostID
	}
	// Modest daily organic activity through the VPN: action counts and
	// targets are planned against the pre-tick state, then the likes and
	// follows apply in user order. The intent buffer persists in the
	// closure and is reused day over day.
	var vpnBuf step.Buffer[vpnOp]
	w.Sched.EveryDay(11*time.Hour, w.Cfg.Days+7, func(int) {
		step.RunInto(w.Steps, &vpnBuf, len(w.vpnSessions), func(i int, emit func(vpnOp)) {
			ur := w.vpnRNGs[i]
			n := 2 + ur.Intn(25)
			for k := 0; k < n; k++ {
				target := members[ur.Intn(len(members))]
				if ur.Bool(0.8) {
					if pid, ok := w.Plat.LatestPost(target); ok {
						emit(vpnOp{sess: w.vpnSessions[i], like: true, post: pid})
					}
				} else {
					emit(vpnOp{sess: w.vpnSessions[i], target: target})
				}
			}
		}, func(op vpnOp) {
			if op.like {
				op.sess.Do(platform.Request{Action: platform.ActionLike, Post: op.post})
			} else {
				op.sess.Do(platform.Request{Action: platform.ActionFollow, Target: op.target})
			}
		})
	})
}

// Services returns all reciprocity service names in catalog order, then
// collusion names.
func (w *World) ServiceNames() []string {
	var out []string
	for _, name := range aas.CatalogNames() {
		if _, ok := w.Recip[name]; ok {
			out = append(out, name)
		}
		if _, ok := w.Coll[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// RunAll schedules every service's managed customer lifecycle for the
// window (automation drivers have been live since world construction).
// Catalog-ordered for determinism.
func (w *World) RunAll() {
	for _, name := range w.ServiceNames() {
		if svc, ok := w.Recip[name]; ok {
			svc.StartLifecycle(w.Cfg.Days, w.Cfg.scaleFor(name))
		}
		if svc, ok := w.Coll[name]; ok {
			svc.StartLifecycle(w.Cfg.Days, w.Cfg.scaleFor(name))
		}
	}
	w.startCrossEnrollment(w.Cfg.Days)
}

// Cross-enrollment rates (§5.1): a sliver of customers experiment with a
// second service, "nearly all ... with free trials".
const (
	crossRecipProb   = 0.015 // enroll with a second reciprocity AAS
	crossCollideProb = 0.035 // reciprocity customer also tries Hublaagram
)

// startCrossEnrollment schedules a daily pass that takes each reciprocity
// service's newest customers and enrolls a small fraction with a sibling
// service, producing the §5.1 account-overlap population.
func (w *World) startCrossEnrollment(days int) {
	w.crossRNG = w.RNG.Split("cross-enroll")
	r := w.crossRNG                    // stable pointer: restore overwrites in place via SetState
	w.crossSeen = make(map[string]int) // per service: customers already considered
	recipNames := make([]string, 0, len(w.Recip))
	for _, name := range w.ServiceNames() {
		if _, ok := w.Recip[name]; ok {
			recipNames = append(recipNames, name)
		}
	}
	hubla := w.Coll[aas.NameHublaagram]

	w.Sched.EveryDay(22*time.Hour, days, func(int) {
		for i, name := range recipNames {
			svc := w.Recip[name]
			customers := svc.Customers()
			for _, c := range customers[w.crossSeen[name]:] {
				if !c.Managed {
					continue
				}
				if len(recipNames) > 1 && r.Bool(crossRecipProb) {
					other := w.Recip[recipNames[(i+1)%len(recipNames)]]
					other.EnrollTrial(c.Username, c.Password, aas.OfferFollow)
				}
				if hubla != nil && r.Bool(crossCollideProb) {
					if cc, err := hubla.EnrollFree(c.Username, c.Password, aas.OfferLike); err == nil {
						hubla.RequestFree(cc, aas.OfferLike)
					}
				}
			}
			w.crossSeen[name] = len(customers)
		}
	})
}

// SetExperimentGatekeeper installs gk on top of the pre-existing IP
// volume guard; pass nil to drop back to the guard alone.
func (w *World) SetExperimentGatekeeper(gk platform.Gatekeeper) {
	switch {
	case gk == nil && w.Guard == nil:
		w.Plat.SetGatekeeper(nil)
	case gk == nil:
		w.Plat.SetGatekeeper(w.Guard)
	case w.Guard == nil:
		w.Plat.SetGatekeeper(gk)
	default:
		w.Plat.SetGatekeeper(detection.Chain(w.Guard, gk))
	}
}

// TrainClassifier enrolls a small fleet of honeypots (one per service and
// offering family), runs warmup days of trial traffic, and returns a
// classifier trained on the honeypot ground truth plus the inactive
// baseline check (§4.1.3, §5).
func (w *World) TrainClassifier(warmupDays int) (*detection.Classifier, error) {
	col := &platform.Collector{Filter: func(ev platform.Event) bool {
		_, isHP := w.Honeypots.Account(ev.Actor)
		return isHP
	}}
	col.Attach(w.Plat.Log())

	// One empty honeypot per (service, offering) pair, per the paper's
	// registration matrix, at reduced count.
	enroll := func(name string, offerings ...aas.Offering) error {
		for _, o := range offerings {
			hp, err := w.Honeypots.Create(honeypot.Empty)
			if err != nil {
				return err
			}
			if svc, ok := w.Recip[name]; ok {
				if _, err := svc.EnrollTrial(hp.Username, hp.Password, o); err != nil {
					return err
				}
			} else if svc, ok := w.Coll[name]; ok {
				c, err := svc.EnrollFree(hp.Username, hp.Password, o)
				if err != nil {
					return err
				}
				// Exercise the free service so inbound and outbound
				// signatures both appear.
				if _, err := svc.RequestFree(c, o); err != nil {
					return err
				}
			}
			w.Honeypots.MarkEnrolled(hp, name)
		}
		return nil
	}
	for _, name := range w.ServiceNames() {
		spec := aas.SpecByName(name)
		var offers []aas.Offering
		for _, o := range []aas.Offering{aas.OfferLike, aas.OfferFollow} {
			if spec.Offers(o) {
				offers = append(offers, o)
			}
		}
		if err := enroll(name, offers...); err != nil {
			return nil, err
		}
	}
	// Inactive baseline fleet.
	if _, err := w.Honeypots.CreateBatch(honeypot.Inactive, 20); err != nil {
		return nil, err
	}

	w.Sched.RunFor(time.Duration(warmupDays) * clock.Day)

	if noisy := w.Honeypots.BaselineQuiet(); len(noisy) > 0 {
		return nil, fmt.Errorf("core: %d inactive honeypots saw activity; attribution unsound", len(noisy))
	}

	classifier := detection.NewClassifier()
	classifier.TrainFromHoneypots(col.Events, func(id platform.AccountID) string {
		if hp, ok := w.Honeypots.Account(id); ok && hp.EnrolledWith != "" {
			return LabelFor(hp.EnrolledWith)
		}
		return ""
	})
	return classifier, nil
}
