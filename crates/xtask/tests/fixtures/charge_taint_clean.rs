// Fixture: a probe read in a library function and one in test code —
// clean in the probe's own module; elsewhere only the first is a finding.
pub fn probe() -> usize {
    Topology::probe().llc_bytes()
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_in_tests_is_fine() {
        let t = Topology::probe();
        assert!(t.llc_bytes() > 0);
    }
}
