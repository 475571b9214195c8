package check

// MaxViolations shows the mute test the checker's violation cap.
const MaxViolations = maxViolations
