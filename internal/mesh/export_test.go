package mesh

// DownVertsForTest exposes the canonical templates to the external
// kernel tests.
var DownVertsForTest = downVerts
