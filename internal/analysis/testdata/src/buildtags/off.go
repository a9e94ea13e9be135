//go:build !race

package buildtags

const Tagged = false
