package analysis

// Suite returns the repo's full analyzer suite with its default
// (human-audited) configurations.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewRetainAudit(DefaultRetainConfig()),
		NewFaultGuard(DefaultFaultGuardConfig()),
		NewImportBoundary(DefaultImportBoundaryConfig()),
		NewAtomicField(DefaultAtomicFieldConfig()),
		NewSentErr(DefaultSentErrConfig()),
		NewNoHeap(DefaultNoHeapConfig()),
	}
}
