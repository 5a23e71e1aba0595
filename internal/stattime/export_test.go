package stattime

// The reference check, exported to the external test that runs it on
// the experiment flow's designs (package exp imports stattime).
var (
	CheckMatchesReference = checkMatchesReference
	ReferenceRhos         = referenceRhos
)
