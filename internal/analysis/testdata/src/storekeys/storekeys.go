// Package storekeysfix is the test fixture of the storekeys rule.
package storekeysfix

import "iorchestra/internal/store"

// Paths built through the schema owners are clean.
var (
	good        = store.DiskPath(1, "xvda", "nr_dirty")
	alsoGood    = store.DomainPath(2) + "/heartbeat"
	clusterGood = store.HypervisorKey("ha", "heartbeat")
	guestGood   = store.ClusterGuestPath("vm001")
)

// bad spells the schema by hand.
var bad = "/local/domain/1/virt-dev/xvda/nr_dirty" // want "raw store path literal"

// The cluster registry schema is owned by store's /cluster constructors.
var (
	clusterBad = "/cluster/hypervisors/x/heartbeat" // want "raw store path literal"
	rootBad    = "/cluster"                         // want "raw store path literal"
)

// concatenated prefixes are raw literals too.
func prefix(suffix string) string {
	return "/local/domain/" + suffix // want "raw store path literal"
}
