// Package aas implements Account Automation Services: the for-profit
// engines that drive customer accounts to manufacture social standing.
//
// Two techniques from §3 are implemented as separate engines sharing a
// customer model:
//
//   - ReciprocityService (reciprocity abuse): automates outbound actions
//     from customer accounts toward a curated pool of organic users, hoping
//     a fraction reciprocate. Includes trial periods, unfollow-after-follow,
//     and the per-account block-detection/probing logic the paper observed
//     ("we found an openly available implementation of one of these
//     services with block detection logic", §6.3).
//
//   - CollusionService (collusion networks): launders actions across the
//     customer population itself — every enrolled account is both a source
//     and a sink. Includes free-tier request quanta and rate limits, paid
//     like tiers, the one-time "no outbound" opt-out, and a slower,
//     service-level block detector (Hublaagram took ~3 weeks to react,
//     §6.3).
//
// The Catalog function returns the five concrete services with the exact
// offerings and price lists of Tables 1–4.
package aas

import (
	"time"

	"footsteps/internal/behavior"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
)

// Technique distinguishes the two abuse approaches of §3.
type Technique int

// Techniques.
const (
	TechniqueReciprocity Technique = iota
	TechniqueCollusion
)

func (t Technique) String() string {
	if t == TechniqueCollusion {
		return "collusion"
	}
	return "reciprocity"
}

// Offering is a service type sold to customers (Table 1 columns).
type Offering int

// Offerings.
const (
	OfferLike Offering = iota
	OfferFollow
	OfferComment
	OfferPost
	OfferUnfollow
)

func (o Offering) String() string {
	switch o {
	case OfferLike:
		return "like"
	case OfferFollow:
		return "follow"
	case OfferComment:
		return "comment"
	case OfferPost:
		return "post"
	case OfferUnfollow:
		return "unfollow"
	default:
		return "unknown"
	}
}

// ReciprocityPricing is a reciprocity AAS's cost structure (Table 2).
type ReciprocityPricing struct {
	TrialDays          int     // advertised free trial length
	DeliveredTrialDays int     // actually delivered; 0 means as advertised
	MinPaidDays        int     // minimum purchasable period
	CostPerPeriod      float64 // dollars per minimum period per account
}

// ActualTrialDays returns the trial length the service actually delivers.
// Instazood advertises 3 days but delivers 7 (§4.2) — the honeypot
// experiment rediscovers this.
func (p ReciprocityPricing) ActualTrialDays() int {
	if p.DeliveredTrialDays > 0 {
		return p.DeliveredTrialDays
	}
	return p.TrialDays
}

// CostPerDay normalizes the price to dollars/day.
func (p ReciprocityPricing) CostPerDay() float64 {
	if p.MinPaidDays == 0 {
		return 0
	}
	return p.CostPerPeriod / float64(p.MinPaidDays)
}

// LikeTier is one monthly likes-per-photo tier of a collusion network
// (Table 3 bottom block).
type LikeTier struct {
	MinLikes, MaxLikes int     // delivered per new photo
	MonthlyFee         float64 // dollars per month
}

// OneTimeLikePackage is an immediate bulk-like purchase (Table 3 middle).
type OneTimeLikePackage struct {
	Likes int
	Fee   float64
}

// CollusionPricing is a collusion network's cost structure (Tables 3–4).
type CollusionPricing struct {
	NoOutboundFee     float64 // one-time fee to never be used as a source
	OneTime           []OneTimeLikePackage
	MonthlyTiers      []LikeTier
	FreeLikeQuantum   int           // likes delivered per free request (≈80 Hublaagram)
	FreeFollowQuantum int           // follows per free request (≈40)
	FreeRequestGap    time.Duration // minimum gap between free requests (30m)
	FreeLikeHourlyCap int           // per-photo hourly like cap for free customers (160)
	AdsPerRequest     int           // pop-under ads shown per free request (1–4)
}

// Spec statically describes one AAS: identity, catalog data, network
// footprint, and workload calibration.
type Spec struct {
	Name      string
	Technique Technique
	Offerings []Offering

	// Business terms. Exactly one of Reciprocity/Collusion is meaningful.
	Reciprocity ReciprocityPricing
	Collusion   CollusionPricing

	// OperatingCountry is the location the service advertises (Table 7).
	OperatingCountry string
	// ASNs the service's automation traffic originates from (Table 7).
	ASNs []netsim.ASN
	// Fingerprint is the spoofed mobile-client string its requests carry.
	Fingerprint string

	// TargetPool calibrates the curated organic pool (reciprocity only):
	// Table 5 response rates and Figures 3/4 degree medians.
	TargetPool behavior.PoolSpec

	// Workload calibration: expected daily outbound actions per active
	// customer, by action type. For collusion services these are the
	// *delivery* rates the network must produce per requesting customer.
	DailyActions map[platform.ActionType]float64

	// UnfollowAfter: fraction of reciprocity customers who enable
	// automatic unfollow of service-created follows.
	UnfollowAfter float64

	// Customers describes the customer-base dynamics at paper scale.
	Customers CustomerDynamics

	// DetectionLag is how long the service takes to deploy like-block
	// detection once blocks begin (zero means immediate, as for follows).
	DetectionLag time.Duration
}

// Offers reports whether the service sells the given offering.
func (s *Spec) Offers(o Offering) bool {
	for _, x := range s.Offerings {
		if x == o {
			return true
		}
	}
	return false
}

// CustomerDynamics calibrates arrivals, conversion, and churn at paper
// scale (scaled down by the study's Scale factor at world build).
type CustomerDynamics struct {
	InitialLongTerm int     // long-term customers active at day 0
	DailyArrivals   float64 // new customers per day
	// LongTermConversion is the probability a new customer converts to
	// long-term in their first month (§5.1: 12% Boostgram, 21% Insta*,
	// 37% Hublaagram).
	LongTermConversion float64
	// DailyChurn is the per-day hazard that a long-term customer quits.
	DailyChurn float64
	// ShortTermMeanDays is the mean engagement of non-converting users.
	ShortTermMeanDays float64
	// Countries is the customer home-country mix (Figure 2).
	Countries []behavior.CountryWeight
	// PayingFractions (collusion only): fraction of active customers in
	// each paid category; see CollusionService.
	PayingFractions CollusionPaying
}

// InitialCohort is how many long-term customers a service seeds at
// day 0 at the given scale: one platform account each.
func (c *CustomerDynamics) InitialCohort(scale float64) int {
	return int(float64(c.InitialLongTerm)*scale + 0.5)
}

// CollusionPaying describes what fraction of a collusion network's active
// customers buy each product (derived from Table 9's account counts over
// the ~1.01M active base).
type CollusionPaying struct {
	NoOutbound float64   // one-time opt-out buyers
	OneTime    float64   // one-time like buyers
	Tiers      []float64 // one fraction per MonthlyTiers entry
}
