package pseudofs

// Hooks for the external differential test (match_diff_test.go), which
// imports internal/core and so cannot live in this package.
var (
	RefMatchPattern  = refMatchPattern
	RefDep           = refDep
	DepTablePatterns = depTablePatterns
)
