// Fixture: a charged engine pass reading the topology probe directly.
pub fn rank_pass_into(ctx: &Ctx, out: &mut [u32]) {
    let lanes = ctx.topology().l2_bytes() / 64;
    let cores = Topology::probe().cores();
    drive(out, lanes, cores);
}
