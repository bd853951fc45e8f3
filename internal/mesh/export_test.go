package mesh

// DownTypesForTest and DownVertsForTest expose the canonical templates,
// and DownStackForTest the downward traversal's scratch size, to the
// external kernel tests.
var (
	DownTypesForTest = downTypes
	DownVertsForTest = downVerts
)

const DownStackForTest = downStack
