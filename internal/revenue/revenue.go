// Package revenue implements the §5.2 gross-revenue estimators: the
// paid-days model for reciprocity AASs (Table 8), the product-mix model
// for collusion networks (Table 9), the long-term/short-term customer
// split (Table 6), and the new-vs-preexisting revenue breakdown (Table 10).
//
// All estimators run on platform-side observations (detection.Tracker
// aggregates) — never on AAS ground truth — exactly as the paper's
// methodology requires. Engine ground-truth ledgers exist only to validate
// the estimates in tests.
package revenue

import (
	"math"

	"footsteps/internal/aas"
	"footsteps/internal/detection"
	"footsteps/internal/platform"
)

// Split is the Table 6 long-term/short-term decomposition for one service.
type Split struct {
	Customers   int
	LongTerm    int
	ShortTerm   int
	LongActions float64 // share of all actions from long-term customers
}

// LongTermSplit classifies the service's customers: long-term customers
// have a consecutive-day activity run strictly longer than minRunDays
// (7 for reciprocity AASs — longer than any trial — and 4 for Hublaagram).
//
// includeInboundOnly controls who counts as a customer at all: collusion
// networks (true) count accounts that only receive service actions (e.g.
// no-outbound buyers), while for reciprocity services (false) inbound-only
// accounts are organic targets, not customers.
func LongTermSplit(svc *detection.ServiceActivity, minRunDays int, includeInboundOnly bool) Split {
	var s Split
	var longActs, allActs int
	for _, a := range svc.Accounts() {
		acts := a.TotalOutboundAll()
		if acts == 0 {
			if !includeInboundOnly {
				continue
			}
			if a.TotalInbound(platform.ActionLike) == 0 && a.TotalInbound(platform.ActionFollow) == 0 {
				continue
			}
		}
		s.Customers++
		allActs += acts
		if a.MaxConsecutiveDays() > minRunDays {
			s.LongTerm++
			longActs += acts
		} else {
			s.ShortTerm++
		}
	}
	if allActs > 0 {
		s.LongActions = float64(longActs) / float64(allActs)
	}
	return s
}

// ReciprocityEstimate is one row of Table 8.
type ReciprocityEstimate struct {
	PaidAccounts int
	PaidDays     int     // total account-days of paid service in the window
	Monthly      float64 // revenue normalized to a 30-day month
}

// EstimateReciprocity runs the §5.2 paid-days model over [fromDay, toDay):
// an account is paid once it is active beyond its trial (measured from its
// first active day), and each paid day converts to money at the service's
// minimum-purchase granularity.
func EstimateReciprocity(svc *detection.ServiceActivity, pricing aas.ReciprocityPricing, fromDay, toDay int) ReciprocityEstimate {
	var est ReciprocityEstimate
	trial := pricing.ActualTrialDays()
	period := pricing.MinPaidDays
	if period <= 0 {
		period = 1
	}
	windowDays := toDay - fromDay
	if windowDays <= 0 {
		return est
	}
	var dayBuf []int
	for _, a := range svc.Accounts() {
		if !a.HasOutbound() {
			continue // organic target of the service, not a customer
		}
		dayBuf = a.AppendActiveDays(dayBuf[:0])
		days := dayBuf
		if len(days) == 0 {
			continue
		}
		trialEnd := days[0] + trial // trial runs from first observed activity
		paidDays := 0
		for _, d := range days {
			if d >= trialEnd && d >= fromDay && d < toDay {
				paidDays++
			}
		}
		if paidDays == 0 {
			continue
		}
		est.PaidAccounts++
		est.PaidDays += paidDays
		// Purchases come in whole periods: round the account's paid days
		// up to the period granularity.
		periods := int(math.Ceil(float64(paidDays) / float64(period)))
		est.Monthly += float64(periods) * pricing.CostPerPeriod
	}
	// Normalize to a 30-day month.
	est.Monthly *= 30 / float64(windowDays)
	return est
}

// CPM bounds for pop-under advertising across a worldwide audience (§5.2).
const (
	AdCPMLow  = 0.60
	AdCPMHigh = 4.00
)

// CollusionEstimate is the Table 9 decomposition.
type CollusionEstimate struct {
	// One-time products.
	NoOutboundAccounts int
	NoOutboundRevenue  float64 // lifetime fees collected from them

	OneTimeBuyers  int
	OneTimeRevenue float64

	// Monthly like tiers, parallel to pricing.MonthlyTiers.
	TierAccounts []int
	TierRevenue  []float64

	// Advertising.
	AdImpressions int // per month
	AdRevenueLow  float64
	AdRevenueHigh float64

	MonthlyLow  float64 // total recurring, low CPM
	MonthlyHigh float64 // total recurring, high CPM
}

// EstimateCollusion runs the §5.2 Hublaagram accounting over the tracked
// window of windowDays days:
//
//   - no-outbound buyers: accounts that only ever receive service actions;
//   - paid like customers: accounts that ever exceeded the free per-photo
//     hourly cap;
//   - of those, one-time buyers have photos above the smallest one-time
//     package while their median likes/photo stays below the lowest tier;
//   - monthly tier customers are binned by median likes/photo;
//   - ad impressions: free customers' inbound actions counted in
//     free-request quanta, one impression per request (conservative).
func EstimateCollusion(svc *detection.ServiceActivity, pricing aas.CollusionPricing, windowDays int) CollusionEstimate {
	est := CollusionEstimate{
		TierAccounts: make([]int, len(pricing.MonthlyTiers)),
		TierRevenue:  make([]float64, len(pricing.MonthlyTiers)),
	}
	if windowDays <= 0 {
		return est
	}
	lowestTierMin := math.MaxInt
	if len(pricing.MonthlyTiers) > 0 {
		lowestTierMin = pricing.MonthlyTiers[0].MinLikes
	}
	requests := 0
	for _, a := range svc.Accounts() {
		inLikes := a.TotalInbound(platform.ActionLike)
		inFollows := a.TotalInbound(platform.ActionFollow)
		outbound := a.TotalOutboundAll()
		// No-outbound buyers: inbound service actions, zero outbound.
		if outbound == 0 && (inLikes > 0 || inFollows > 0) {
			est.NoOutboundAccounts++
			est.NoOutboundRevenue += pricing.NoOutboundFee
			// They may also buy likes; fall through.
		}

		paid := pricing.FreeLikeHourlyCap > 0 && a.PeakHourlyLike > pricing.FreeLikeHourlyCap
		if paid {
			median := a.MedianLikesPerPost()
			oneTime := median < float64(lowestTierMin) && len(pricing.OneTime) > 0 &&
				a.PostsWithAtLeast(pricing.OneTime[0].Likes) > 0
			if oneTime {
				// One-time buyer: count photos at or above the smallest
				// package size.
				n := a.PostsWithAtLeast(pricing.OneTime[0].Likes)
				est.OneTimeBuyers++
				est.OneTimeRevenue += float64(n) * pricing.OneTime[0].Fee
			} else {
				// Paid-speed accounts whose median sits below the lowest
				// tier occur only in scaled-down worlds, where the source
				// pool caps delivery volume; bin them into the lowest tier
				// rather than dropping a known-paid account.
				if median < float64(lowestTierMin) && len(pricing.MonthlyTiers) > 0 {
					est.TierAccounts[0]++
					est.TierRevenue[0] += pricing.MonthlyTiers[0].MonthlyFee
					continue
				}
				for i, tier := range pricing.MonthlyTiers {
					upper := float64(tier.MaxLikes)
					if i == len(pricing.MonthlyTiers)-1 {
						upper = math.Inf(1)
					}
					if median >= float64(tier.MinLikes) && median < upper {
						est.TierAccounts[i]++
						est.TierRevenue[i] += tier.MonthlyFee
						break
					}
				}
			}
		} else {
			// Free customer: estimate ad-funded requests from delivery
			// quanta. Paying customers are conservatively excluded (§5.2).
			if pricing.FreeLikeQuantum > 0 {
				requests += inLikes / pricing.FreeLikeQuantum
			}
			if pricing.FreeFollowQuantum > 0 {
				requests += inFollows / pricing.FreeFollowQuantum
			}
		}
	}
	monthlyRequests := float64(requests) * 30 / float64(windowDays)
	est.AdImpressions = int(monthlyRequests)
	est.AdRevenueLow = monthlyRequests / 1000 * AdCPMLow
	est.AdRevenueHigh = monthlyRequests / 1000 * AdCPMHigh

	var tierTotal float64
	for _, r := range est.TierRevenue {
		tierTotal += r
	}
	recurring := tierTotal + est.OneTimeRevenue
	est.MonthlyLow = recurring + est.AdRevenueLow
	est.MonthlyHigh = recurring + est.AdRevenueHigh
	return est
}

// NewVsPreexisting is the Table 10 revenue split for one service over one
// month.
type NewVsPreexisting struct {
	NewFraction         float64
	PreexistingFraction float64
}

// SplitNewVsPreexisting attributes the month [monthStart, monthStart+30)'s
// paying customers by whether they were already paying before monthStart.
// paidDaysBefore/paidDaysDuring use the same paid-day rule as
// EstimateReciprocity; for collusion services pass paid-category activity
// via the isPaid callback instead (see SplitCollusionNewVsPreexisting).
func SplitNewVsPreexisting(svc *detection.ServiceActivity, pricing aas.ReciprocityPricing, monthStart int) NewVsPreexisting {
	trial := pricing.ActualTrialDays()
	var newRev, oldRev float64
	var dayBuf []int
	for _, a := range svc.Accounts() {
		if !a.HasOutbound() {
			continue
		}
		dayBuf = a.AppendActiveDays(dayBuf[:0])
		days := dayBuf
		if len(days) == 0 {
			continue
		}
		trialEnd := days[0] + trial
		var before, during int
		for _, d := range days {
			if d < trialEnd {
				continue
			}
			switch {
			case d < monthStart:
				before++
			case d < monthStart+30:
				during++
			}
		}
		if during == 0 {
			continue
		}
		amount := float64(during) * pricing.CostPerDay()
		if before > 0 {
			oldRev += amount
		} else {
			newRev += amount
		}
	}
	total := newRev + oldRev
	if total == 0 {
		return NewVsPreexisting{}
	}
	return NewVsPreexisting{NewFraction: newRev / total, PreexistingFraction: oldRev / total}
}

// SplitCollusionNewVsPreexisting is the Table 10 split for collusion
// networks: a customer's month revenue counts as preexisting when the
// account already showed paid-shape activity (any above-cap hour or
// opt-out purchase pattern) before monthStart. Because one-time fees are
// not observable per month, the split uses paid-delivery volume as the
// revenue proxy.
func SplitCollusionNewVsPreexisting(svc *detection.ServiceActivity, pricing aas.CollusionPricing, monthStart int) NewVsPreexisting {
	var newRev, oldRev float64
	for _, a := range svc.Accounts() {
		if pricing.FreeLikeHourlyCap <= 0 || a.PeakHourlyLike <= pricing.FreeLikeHourlyCap {
			continue
		}
		var before, during float64
		for i := range a.InboundDaily {
			dc := &a.InboundDaily[i]
			v := float64(dc.N[platform.ActionLike])
			switch d := int(dc.Day); {
			case d < monthStart:
				before += v
			case d < monthStart+30:
				during += v
			}
		}
		if during == 0 {
			continue
		}
		if before > 0 {
			oldRev += during
		} else {
			newRev += during
		}
	}
	total := newRev + oldRev
	if total == 0 {
		return NewVsPreexisting{}
	}
	return NewVsPreexisting{NewFraction: newRev / total, PreexistingFraction: oldRev / total}
}
