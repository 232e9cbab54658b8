package profiler

// ReferenceProfiles exposes the whole-column reference to the external
// tests, which reach the profiler through the platform.
var ReferenceProfiles = referenceProfiles
