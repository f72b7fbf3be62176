package cluster

// HashReplica exposes hashReplica to the external test package, which
// may import the live backend (the backend's own dependencies reach
// back into this package, so an in-package test cannot).
var HashReplica = hashReplica
