package main

// Seed-1 hashes of the full-size simulation workloads: the business
// report (Tables 6-11 plus the revenue summary) and the FSEV1 streams
// reconstructed from the durable logs. Behaviour is fixed by the FSEV1
// goldens and the report hash, so any change here is a behaviour change,
// not a performance one.
const (
	pinBusiness30   = "d36255568cbb47f18ad12af211fd92a6f262a125c0a9e341021fba25f328184e"
	pinDurableGraph = "8ef90a660532fdddde60a26c44e46863112d63d7e760746aae1c5a39b16cdc3d"
	pinScale100k    = "9b33f4edba75183adc5063d9833708dbc52023ea572e24f9cd9e9b49c93edfa8"
)
