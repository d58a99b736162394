package zeek

// Seams for group_test.go, an external test package because it folds groups
// with package analysis, which imports this one.
var (
	GroupBlocks   = groupBlocks
	TSVSeedCases  = tsvSeedCases
	JSONSeedCases = jsonSeedCases
)

const (
	TSVSSLHeader   = tsvSSLHeader
	TSVX509Header  = tsvX509Header
	TSVSeedX509Row = tsvSeedX509Row
	JSONX509Row    = jsonX509Row
)
