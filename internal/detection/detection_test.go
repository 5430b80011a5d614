package detection

import (
	"testing"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
)

func ev(actor, target platform.AccountID, typ platform.ActionType, asn netsim.ASN, client string) platform.Event {
	return platform.Event{
		Time: clock.Epoch, Type: typ, Actor: actor, Target: target,
		ASN: asn, Client: client, Outcome: platform.OutcomeAllowed,
	}
}

func TestClassifierTrainAndClassify(t *testing.T) {
	t.Parallel()
	c := NewClassifier()
	enrolled := map[platform.AccountID]string{10: "Boostgram", 11: "Insta*", 12: "Insta*"}
	events := []platform.Event{
		ev(10, 100, platform.ActionFollow, 1002, "mobile-spoof-boostgram"),
		ev(11, 101, platform.ActionLike, 1001, "mobile-spoof-instastar"),
		ev(12, 102, platform.ActionLike, 1001, "mobile-spoof-instastar"),
		// The honeypot's own setup traffic must not be learned.
		ev(10, 100, platform.ActionFollow, 2001, "mobile-official"),
		// Unenrolled accounts teach nothing.
		ev(99, 100, platform.ActionFollow, 1002, "mobile-spoof-boostgram"),
	}
	c.TrainFromHoneypots(events, func(id platform.AccountID) string { return enrolled[id] })

	if label, ok := c.Classify(ev(55, 1, platform.ActionFollow, 1002, "mobile-spoof-boostgram")); !ok || label != "Boostgram" {
		t.Fatalf("classify = %q, %v", label, ok)
	}
	// The two franchises collapse into one label.
	if label, _ := c.Classify(ev(56, 1, platform.ActionLike, 1001, "mobile-spoof-instastar")); label != "Insta*" {
		t.Fatalf("franchise label %q", label)
	}
	// Organic traffic stays unclassified.
	if _, ok := c.Classify(ev(57, 1, platform.ActionLike, 2001, "mobile-official")); ok {
		t.Fatal("organic traffic classified as AAS")
	}
	// Same fingerprint from an unknown ASN (proxy evasion) IS still
	// attributed — only the ASN-keyed thresholds lose reach (§6.4).
	if label, ok := c.Classify(ev(58, 1, platform.ActionLike, 3001, "mobile-spoof-boostgram")); !ok || label != "Boostgram" {
		t.Fatal("proxy-evaded traffic must stay attributable by fingerprint")
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "Boostgram" || labels[1] != "Insta*" {
		t.Fatalf("labels %v", labels)
	}
	if asns := c.ASNsFor("Boostgram"); len(asns) != 1 || asns[0] != 1002 {
		t.Fatalf("ASNsFor %v", asns)
	}
	if sigs := c.Signatures("Insta*"); len(sigs) != 1 || sigs[0].Fingerprint != "mobile-spoof-instastar" {
		t.Fatalf("signatures %v", sigs)
	}
	if s := (Signature{Fingerprint: "x", ASN: 7}).String(); s != "x@AS7" {
		t.Fatalf("signature string %q", s)
	}
}

func TestCalibratorMixedASN(t *testing.T) {
	t.Parallel()
	// ASN 100 carries both benign and AAS traffic → threshold is the 99th
	// percentile of benign per-account daily counts.
	c := NewClassifier()
	c.Learn(Signature{Fingerprint: "spoof", ASN: 100}, "Svc")
	cal := NewCalibrator(c.Classify)

	// 100 benign accounts do 1..100 likes in a day; one AAS account does
	// 10,000.
	for i := 1; i <= 100; i++ {
		for k := 0; k < i; k++ {
			cal.Observe(ev(platform.AccountID(i), 1, platform.ActionLike, 100, "mobile-official"))
		}
	}
	for k := 0; k < 10000; k++ {
		cal.Observe(ev(5000, 1, platform.ActionLike, 100, "spoof"))
	}
	cal.EndDay()
	th := cal.Compute()

	v, ok := th.Lookup(100, platform.ActionLike)
	if !ok {
		t.Fatal("no threshold for mixed ASN")
	}
	// 99th percentile of 1..100 ≈ 99; the AAS's 10,000 must not drag it up.
	if v < 95 || v > 101 {
		t.Fatalf("mixed-ASN threshold %v, want ≈99", v)
	}
}

func TestCalibratorDedicatedASN(t *testing.T) {
	t.Parallel()
	c := NewClassifier()
	c.Learn(Signature{Fingerprint: "spoof", ASN: 200}, "Svc")
	cal := NewCalibrator(c.Classify)
	// Only AAS traffic on ASN 200: accounts doing 100, 200, 300, 400 likes.
	for i, n := range []int{100, 200, 300, 400} {
		for k := 0; k < n; k++ {
			cal.Observe(ev(platform.AccountID(i+1), 1, platform.ActionLike, 200, "spoof"))
		}
	}
	cal.EndDay()
	th := cal.Compute()
	v, ok := th.Lookup(200, platform.ActionLike)
	if !ok {
		t.Fatal("no threshold for dedicated ASN")
	}
	// 25th percentile of {100,200,300,400} = 175 (type-7 interpolation).
	if v < 150 || v > 200 {
		t.Fatalf("dedicated-ASN threshold %v, want ≈175", v)
	}
}

func TestCalibratorIgnoresIrrelevantEvents(t *testing.T) {
	t.Parallel()
	c := NewClassifier()
	c.Learn(Signature{Fingerprint: "spoof", ASN: 300}, "Svc")
	cal := NewCalibrator(c.Classify)
	blocked := ev(1, 2, platform.ActionLike, 300, "spoof")
	blocked.Outcome = platform.OutcomeBlocked
	cal.Observe(blocked)
	cal.Observe(ev(1, 2, platform.ActionComment, 300, "spoof")) // not a policed type
	login := ev(1, 0, platform.ActionLogin, 300, "spoof")
	cal.Observe(login)
	cal.EndDay()
	th := cal.Compute()
	if _, ok := th.Lookup(300, platform.ActionLike); ok {
		t.Fatal("threshold computed from ignored events")
	}
}

func TestThresholdLookupMissingASN(t *testing.T) {
	t.Parallel()
	th := Thresholds{PerASN: map[netsim.ASN]map[platform.ActionType]float64{}}
	if _, ok := th.Lookup(999, platform.ActionLike); ok {
		t.Fatal("lookup on unknown ASN succeeded")
	}
}

func trackedEvent(actor, target platform.AccountID, typ platform.ActionType, at time.Time, post platform.PostID) platform.Event {
	return platform.Event{
		Time: at, Type: typ, Actor: actor, Target: target, Post: post,
		ASN: 1002, Client: "spoof", Outcome: platform.OutcomeAllowed,
	}
}

func newTestTracker() *Tracker {
	c := NewClassifier()
	c.Learn(Signature{Fingerprint: "spoof", ASN: 1002}, "Svc")
	return NewTracker(c, clock.Epoch)
}

func TestTrackerDailyActivityAndLongTerm(t *testing.T) {
	t.Parallel()
	tr := newTestTracker()
	day := func(d int) time.Time { return clock.Epoch.Add(time.Duration(d) * clock.Day) }

	// Account 1: active on days 0..9 (long-term by any definition).
	for d := 0; d < 10; d++ {
		for k := 0; k < 5; k++ {
			tr.Observe(trackedEvent(1, 100, platform.ActionFollow, day(d), 0))
		}
	}
	// Account 2: days 0, 1, then 5 (max run 2).
	for _, d := range []int{0, 1, 5} {
		tr.Observe(trackedEvent(2, 100, platform.ActionFollow, day(d), 0))
	}
	svc := tr.Service("Svc")
	if svc == nil || svc.Customers() < 2 {
		t.Fatalf("service %+v", svc)
	}
	a1 := svc.Account(1)
	if a1.MaxConsecutiveDays() != 10 {
		t.Fatalf("a1 run %d", a1.MaxConsecutiveDays())
	}
	if a1.TotalOutbound(platform.ActionFollow) != 50 {
		t.Fatalf("a1 follows %d", a1.TotalOutbound(platform.ActionFollow))
	}
	if a1.OutboundOnDay(3, platform.ActionFollow) != 5 {
		t.Fatalf("a1 day-3 follows %d", a1.OutboundOnDay(3, platform.ActionFollow))
	}
	a2 := svc.Account(2)
	if a2.MaxConsecutiveDays() != 2 {
		t.Fatalf("a2 run %d", a2.MaxConsecutiveDays())
	}
	if svc.Actions[platform.ActionFollow] != 53 {
		t.Fatalf("service follows %d", svc.Actions[platform.ActionFollow])
	}
	if !svc.Account(100).Targeted() {
		t.Fatal("target not recorded")
	}
}

func TestTrackerInboundLikesAndPeakHourly(t *testing.T) {
	t.Parallel()
	tr := newTestTracker()
	at := clock.Epoch
	// 200 likes to post 7 of account 9 within one hour (paid-burst shape),
	// then 50 likes to post 8 spread over many hours.
	for i := 0; i < 200; i++ {
		tr.Observe(trackedEvent(platform.AccountID(1000+i), 9, platform.ActionLike, at.Add(time.Duration(i)*10*time.Second), 7))
	}
	for i := 0; i < 50; i++ {
		tr.Observe(trackedEvent(platform.AccountID(2000+i), 9, platform.ActionLike, at.Add(time.Duration(i)*2*time.Hour), 8))
	}
	a := tr.Service("Svc").Account(9)
	if a.PostLikeCount(7) != 200 || a.PostLikeCount(8) != 50 {
		t.Fatalf("post likes %d, %d", a.PostLikeCount(7), a.PostLikeCount(8))
	}
	if a.PeakHourlyLike < 161 {
		t.Fatalf("peak hourly %d, want >160 for the burst", a.PeakHourlyLike)
	}
	if got := a.MedianLikesPerPost(); got != 125 {
		t.Fatalf("median likes/post %v, want 125", got)
	}
	if a.PostsWithAtLeast(100) != 1 || a.PostsWithAtLeast(10) != 2 {
		t.Fatal("PostsWithAtLeast wrong")
	}
	if a.TotalInbound(platform.ActionLike) != 250 {
		t.Fatalf("total inbound %d", a.TotalInbound(platform.ActionLike))
	}
}

func TestTrackerIgnoresUnclassified(t *testing.T) {
	t.Parallel()
	tr := newTestTracker()
	e := trackedEvent(1, 2, platform.ActionLike, clock.Epoch, 1)
	e.Client = "mobile-official"
	tr.Observe(e)
	if len(tr.Labels()) != 0 {
		t.Fatal("unclassified event tracked")
	}
	// Blocked events are not activity.
	e2 := trackedEvent(1, 2, platform.ActionLike, clock.Epoch, 1)
	e2.Outcome = platform.OutcomeBlocked
	tr.Observe(e2)
	if len(tr.Labels()) != 0 {
		t.Fatal("blocked event tracked")
	}
}

func TestTrackerLoginMarksEnrollment(t *testing.T) {
	t.Parallel()
	tr := newTestTracker()
	login := trackedEvent(42, 0, platform.ActionLogin, clock.Epoch, 0)
	tr.Observe(login)
	svc := tr.Service("Svc")
	if svc == nil || svc.Customers() != 1 {
		t.Fatal("login did not register customer")
	}
	if svc.Account(42).MaxConsecutiveDays() != 0 {
		t.Fatal("login counted as activity")
	}
}

func TestAccountActivityEmpty(t *testing.T) {
	t.Parallel()
	a := &AccountActivity{}
	if a.MaxConsecutiveDays() != 0 || a.MedianLikesPerPost() != 0 {
		t.Fatal("empty activity stats wrong")
	}
}
