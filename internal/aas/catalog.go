package aas

import (
	"time"

	"footsteps/internal/behavior"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
)

// Well-known ASNs for the services' automation traffic and their customers'
// home networks. Registered onto the study's netsim registry by
// RegisterNetworks.
const (
	ASNInstaStarDC  netsim.ASN = 1001 // Insta* datacenter, USA (Table 7)
	ASNBoostgramDC  netsim.ASN = 1002 // Boostgram datacenter, USA
	ASNHublaagramGB netsim.ASN = 1003 // Hublaagram, GBR
	ASNHublaagramUS netsim.ASN = 1004 // Hublaagram, USA
	ASNFgratisDC    netsim.ASN = 1005 // Followersgratis single small ASN

	// Residential eyeball networks for customer and organic logins.
	ASNResUSA netsim.ASN = 2001
	ASNResRUS netsim.ASN = 2002
	ASNResIDN netsim.ASN = 2003
	ASNResBRA netsim.ASN = 2004
	ASNResIND netsim.ASN = 2005
	ASNResTUR netsim.ASN = 2006
	ASNResGBR netsim.ASN = 2007
	ASNResPHL netsim.ASN = 2008
	ASNResDEU netsim.ASN = 2009
	ASNResCAN netsim.ASN = 2010

	// Proxy ASNs used by services evading blocks (§6.4 epilogue).
	ASNProxyBase netsim.ASN = 3001 // 3001..3001+proxyASNCount-1
)

// proxyASNCount is how many distinct ASNs the evasion proxy network spans.
const proxyASNCount = 24

// RegisterNetworks registers every ASN the study uses onto reg and returns
// the proxy ASNs. Call once per world.
func RegisterNetworks(reg *netsim.Registry) []netsim.ASN {
	reg.Register(ASNInstaStarDC, "insta*-dc", "USA", netsim.KindHosting)
	reg.Register(ASNBoostgramDC, "boostgram-dc", "USA", netsim.KindHosting)
	reg.Register(ASNHublaagramGB, "hublaagram-gb", "GBR", netsim.KindHosting)
	reg.Register(ASNHublaagramUS, "hublaagram-us", "USA", netsim.KindHosting)
	reg.Register(ASNFgratisDC, "followersgratis-dc", "IDN", netsim.KindHosting)

	reg.Register(ASNResUSA, "res-usa", "USA", netsim.KindResidential)
	reg.Register(ASNResRUS, "res-rus", "RUS", netsim.KindResidential)
	reg.Register(ASNResIDN, "res-idn", "IDN", netsim.KindResidential)
	reg.Register(ASNResBRA, "res-bra", "BRA", netsim.KindResidential)
	reg.Register(ASNResIND, "res-ind", "IND", netsim.KindResidential)
	reg.Register(ASNResTUR, "res-tur", "TUR", netsim.KindResidential)
	reg.Register(ASNResGBR, "res-gbr", "GBR", netsim.KindResidential)
	reg.Register(ASNResPHL, "res-phl", "PHL", netsim.KindResidential)
	reg.Register(ASNResDEU, "res-deu", "DEU", netsim.KindResidential)
	reg.Register(ASNResCAN, "res-can", "CAN", netsim.KindResidential)

	proxies := make([]netsim.ASN, proxyASNCount)
	countries := []string{"USA", "DEU", "BRA", "IND", "TUR", "GBR", "RUS", "IDN"}
	for i := range proxies {
		asn := ASNProxyBase + netsim.ASN(i)
		reg.Register(asn, "proxy", countries[i%len(countries)], netsim.KindCommercial)
		proxies[i] = asn
	}
	return proxies
}

// Service names.
const (
	NameInstalex        = "Instalex"
	NameInstazood       = "Instazood"
	NameBoostgram       = "Boostgram"
	NameHublaagram      = "Hublaagram"
	NameFollowersgratis = "Followersgratis"
)

// Catalog returns the five studied services with Tables 1–4 as data and
// the calibration constants from §4–§5. The returned specs are fresh
// copies; callers may tweak them per experiment.
func Catalog() []*Spec {
	return []*Spec{
		instalexSpec(),
		instazoodSpec(),
		boostgramSpec(),
		hublaagramSpec(),
		followersgratisSpec(),
	}
}

// catalogNames is Catalog's service names, in catalog order.
var catalogNames = []string{NameInstalex, NameInstazood, NameBoostgram, NameHublaagram, NameFollowersgratis}

// CatalogNames returns the catalog's service names in catalog order,
// without building the specs. The slice is shared: do not modify it.
func CatalogNames() []string { return catalogNames }

// SpecByName returns the catalog spec with the given name, or nil.
func SpecByName(name string) *Spec {
	for _, s := range Catalog() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func instalexSpec() *Spec {
	return &Spec{
		Name:      NameInstalex,
		Technique: TechniqueReciprocity,
		// Table 1: like, follow, comment, unfollow (no post).
		Offerings: []Offering{OfferLike, OfferFollow, OfferComment, OfferUnfollow},
		// Table 2: 7-day trial, 7-day minimum, $3.15.
		Reciprocity:      ReciprocityPricing{TrialDays: 7, MinPaidDays: 7, CostPerPeriod: 3.15},
		OperatingCountry: "RUS", // Table 7: operates from Russia, ASN in USA
		ASNs:             []netsim.ASN{ASNInstaStarDC},
		Fingerprint:      "mobile-spoof-instastar", // franchises share infrastructure: indistinguishable signals (§5, "Insta*")
		// Table 5 empty-account rows; the like→follow 1.4% anomaly is a
		// property of Instalex's curated pool. Degree medians from
		// Figures 3/4 (Insta*: out 554.5, in 384).
		TargetPool: behavior.PoolSpec{
			LikeToLike: 0.021, LikeToFollow: 0.014, FollowToFollow: 0.128,
			OutDegMedian: 554.5, InDegMedian: 384,
		},
		// Table 11 Insta* mix: likes 30.8%, follows 38.6%, comments 5.6%,
		// unfollows 25.0% — budget ≈ 260 actions/day.
		DailyActions: map[platform.ActionType]float64{
			platform.ActionLike:     80,
			platform.ActionFollow:   100,
			platform.ActionComment:  15,
			platform.ActionUnfollow: 65,
		},
		UnfollowAfter: 0.65,
		Customers: CustomerDynamics{
			// Insta* splits across the two franchises; each takes half of
			// the §5.1 totals (121,661 customers, 34% long-term, >10%
			// growth, 21% conversion).
			InitialLongTerm:    12000,
			DailyArrivals:      540,
			LongTermConversion: 0.21,
			DailyChurn:         0.0065,
			ShortTermMeanDays:  2.5,
			Countries: []behavior.CountryWeight{
				{Country: "RUS", Weight: 0.26},
				{Country: "USA", Weight: 0.09},
				{Country: "BRA", Weight: 0.08},
				{Country: "IND", Weight: 0.07},
				{Country: "TUR", Weight: 0.06},
				{Country: "OTHER", Weight: 0.44},
			},
		},
	}
}

func instazoodSpec() *Spec {
	s := instalexSpec()
	s.Name = NameInstazood
	// Table 1: Instazood additionally offers posts.
	s.Offerings = []Offering{OfferLike, OfferFollow, OfferComment, OfferPost, OfferUnfollow}
	// Table 2: advertises 3 days but delivers 7 (§4.2); 1-day minimum, $0.34.
	s.Reciprocity = ReciprocityPricing{TrialDays: 3, DeliveredTrialDays: 7, MinPaidDays: 1, CostPerPeriod: 0.34}
	// Same parent infrastructure: Instazood's traffic is indistinguishable
	// from Instalex's, which is why the paper merges them as "Insta*".
	// Table 5: Instazood's pool lacks the like→follow quirk.
	s.TargetPool.LikeToFollow = 0.002
	s.TargetPool.FollowToFollow = 0.130
	return s
}

func boostgramSpec() *Spec {
	return &Spec{
		Name:      NameBoostgram,
		Technique: TechniqueReciprocity,
		// Table 1: like, follow, post, unfollow (no comment).
		Offerings: []Offering{OfferLike, OfferFollow, OfferPost, OfferUnfollow},
		// Table 2: 3-day trial, 30-day minimum, $99.
		Reciprocity:      ReciprocityPricing{TrialDays: 3, MinPaidDays: 30, CostPerPeriod: 99},
		OperatingCountry: "USA",
		ASNs:             []netsim.ASN{ASNBoostgramDC},
		Fingerprint:      "mobile-spoof-boostgram",
		// Table 5: Boostgram(E) like→like 1.5%, follow→follow 10.3%;
		// Figures 3/4: out 684, in 498.
		TargetPool: behavior.PoolSpec{
			LikeToLike: 0.015, LikeToFollow: 0.001, FollowToFollow: 0.103,
			OutDegMedian: 684, InDegMedian: 498,
		},
		// Table 11 Boostgram mix: likes 64.0%, follows 19.3%, unfollows
		// 16.7% — budget ≈ 420 actions/day.
		DailyActions: map[platform.ActionType]float64{
			platform.ActionLike:     270,
			platform.ActionFollow:   80,
			platform.ActionUnfollow: 70,
		},
		UnfollowAfter: 0.80,
		Customers: CustomerDynamics{
			// §5.1: 11,959 customers, 33% long-term, slight shrink, 12%
			// conversion (lowest: most expensive service).
			InitialLongTerm:    2900,
			DailyArrivals:      101,
			LongTermConversion: 0.12,
			DailyChurn:         0.0048,
			ShortTermMeanDays:  2.5,
			Countries: []behavior.CountryWeight{
				{Country: "USA", Weight: 0.34},
				{Country: "GBR", Weight: 0.09},
				{Country: "CAN", Weight: 0.08},
				{Country: "BRA", Weight: 0.07},
				{Country: "DEU", Weight: 0.06},
				{Country: "OTHER", Weight: 0.36},
			},
		},
	}
}

func hublaagramSpec() *Spec {
	return &Spec{
		Name:      NameHublaagram,
		Technique: TechniqueCollusion,
		// Table 1: like, follow, comment.
		Offerings:        []Offering{OfferLike, OfferFollow, OfferComment},
		OperatingCountry: "IDN", // operates from Indonesia; ASNs in GBR+USA
		ASNs:             []netsim.ASN{ASNHublaagramGB, ASNHublaagramUS},
		Fingerprint:      "mobile-spoof-hublaagram",
		Collusion: CollusionPricing{
			NoOutboundFee: 15, // Table 3: $15 for life
			OneTime: []OneTimeLikePackage{
				{Likes: 2000, Fee: 10},
				{Likes: 5000, Fee: 20},
				{Likes: 10000, Fee: 25},
			},
			MonthlyTiers: []LikeTier{
				{MinLikes: 250, MaxLikes: 500, MonthlyFee: 20},
				{MinLikes: 500, MaxLikes: 1000, MonthlyFee: 30},
				{MinLikes: 1000, MaxLikes: 2000, MonthlyFee: 40},
				{MinLikes: 2000, MaxLikes: 4000, MonthlyFee: 70},
			},
			FreeLikeQuantum:   80, // §5.2: ≈80 likes per free request
			FreeFollowQuantum: 40, // ≈40 follows per free request
			FreeRequestGap:    30 * time.Minute,
			FreeLikeHourlyCap: 160, // §5.2: free cap 160 likes/hour/photo
			AdsPerRequest:     2,   // 1–4 pop-unders per request
		},
		// Table 11 Hublaagram mix: likes 63.0%, follows 35.3%, comments 1.7%.
		DailyActions: map[platform.ActionType]float64{
			platform.ActionLike:    110,
			platform.ActionFollow:  62,
			platform.ActionComment: 3,
		},
		Customers: CustomerDynamics{
			// §5.1: 1,008,127 customers, 50% long-term, slight shrink,
			// 37% first-month conversion.
			InitialLongTerm:    260000,
			DailyArrivals:      8300,
			LongTermConversion: 0.325,
			DailyChurn:         0.0104,
			ShortTermMeanDays:  2.0,
			Countries: []behavior.CountryWeight{
				{Country: "IDN", Weight: 0.44},
				{Country: "IND", Weight: 0.10},
				{Country: "USA", Weight: 0.08},
				{Country: "BRA", Weight: 0.06},
				{Country: "PHL", Weight: 0.06},
				{Country: "OTHER", Weight: 0.26},
			},
			// Table 9 account counts over the ~1.01M active base.
			PayingFractions: CollusionPaying{
				NoOutbound: 24420.0 / 1008127,
				OneTime:    182.0 / 1008127,
				Tiers: []float64{
					11249.0 / 1008127,
					18009.0 / 1008127,
					2488.0 / 1008127,
					155.0 / 1008127,
				},
			},
		},
		DetectionLag: 21 * 24 * time.Hour, // §6.3: reacted ~3 weeks in
	}
}

func followersgratisSpec() *Spec {
	return &Spec{
		Name:      NameFollowersgratis,
		Technique: TechniqueCollusion,
		// Table 1: like, follow only.
		Offerings:        []Offering{OfferLike, OfferFollow},
		OperatingCountry: "IDN",
		ASNs:             []netsim.ASN{ASNFgratisDC},
		Fingerprint:      "mobile-spoof-fgratis",
		Collusion: CollusionPricing{
			// Table 4 price points, normalized into the same structures:
			// follows sold one-time; likes sold one-time.
			OneTime: []OneTimeLikePackage{
				{Likes: 500, Fee: 2.10},
				{Likes: 500, Fee: 5.25},
			},
			FreeFollowQuantum: 25,
			FreeRequestGap:    time.Hour,
			FreeLikeHourlyCap: 160,
			AdsPerRequest:     1,
		},
		DailyActions: map[platform.ActionType]float64{
			platform.ActionLike:   30,
			platform.ActionFollow: 20,
		},
		Customers: CustomerDynamics{
			// §5: "already well-policed ... very limited impact"; its
			// single small ASN caps abuse volume, so its base stays small.
			InitialLongTerm:    4000,
			DailyArrivals:      120,
			LongTermConversion: 0.20,
			DailyChurn:         0.01,
			ShortTermMeanDays:  1.5,
			Countries: []behavior.CountryWeight{
				{Country: "IDN", Weight: 0.70},
				{Country: "OTHER", Weight: 0.30},
			},
		},
	}
}
