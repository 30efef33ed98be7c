// Package hotpathfix is the module root. Its external test imports
// internal/nic before that package's own unit is loaded, as the real repo's
// root benchmarks once did.
package hotpathfix
