"""A unit jump migrating to the boundary: the canonical failure of weak*
lower semicontinuity without boundary control.

On (0,1) with the linear density f(xi) = xi, the functions u_n = chi_(0,1/n)
have derivative -delta_{1/n}, so F(u_n) = -1 for every n, while u_n -> 0
weakly* and F(0) = 0.  The integrand is convex (hence quasiconvex), so the
failure is invisible to interior tests; the half-ball sign test at the
boundary point 0 catches it.  Enlarging the domain to (-1,1) re-introduces
the compensating jump at 0 and the effect disappears.
"""

from bvlsc import (
    Domain,
    SequenceSpec,
    catalog_get,
    empirical_liminf,
    eval_F,
    generate,
    halfball_deficit,
    necessity_witness,
    weakstar_diagnostics,
)

f = catalog_get("linear", {"matrix": [[1.0]]})
omega = Domain.interval(0.0, 1.0)
spec = SequenceSpec("jump_migration", omega, n_max=64)

print("== energies along the sequence")
for n in (2, 4, 8, 32):
    un = generate(spec, n)
    val = eval_F(f, f.recession, un)
    print(f"  n={n:3d}: F(u_n) = {val.total:+.3f}  "
          f"(bulk {val.bulk:+.3f}, singular {val.singular:+.3f}), "
          f"jump at x = {un.mesh.vertices[un.facets[0, 0], 0]:.4f}")

print("\n== weak* diagnostics (L1 trend + TV bound)")
members = [generate(spec, n) for n in (4, 8, 16, 32, 64)]
diag = weakstar_diagnostics(members, l1_threshold=0.05)
print(f"  L1 distances to 0: {[round(d, 4) for d in diag['l1_distances']]}")
print(f"  sup TV = {diag['tv_sup']:.1f}  ->  {diag['verdict']}")

print("\n== empirical liminf vs F(0)")
lim = empirical_liminf(f, f.recession, spec)
print(f"  running min tail = {lim['running_min'][-1]:.3f}, "
      f"F(limit) = {lim['limit_value']:.3f}  ->  {lim['verdict']}")

print("\n== boundary sign test at x0 = 0")
bp = omega.boundary_point([0.0])
rep = halfball_deficit(f.recession, bp, h=1.0 / 32)
print(f"  half-ball quotient = {rep.deficit:+.4f}  ->  {rep.verdict}")

print("\n== the violation transfers into a shrinking sequence")
cert = necessity_witness(f, f.recession, bp, rep.witness, eps=-rep.deficit)
for row in cert["rows"][:4]:
    print(f"  n={row['n']:3d}: F(u_n) - F(0) = {row['gap']:+.4f}")
print(f"  certificate (eventually below {cert['target']:+.3f}): "
      f"{cert['certificate']}")

print("\n== same sequence on the enlarged domain (-1, 1)")
spec_ext = SequenceSpec("jump_migration", Domain.interval(-1.0, 1.0), n_max=64)
u8 = generate(spec_ext, 8)
at = u8.mesh.vertices[u8.facets[:, 0], 0]
print(f"  jumps (x, jump) of u_8: {list(zip(at.tolist(), u8.jumps[:, 0].tolist()))}")
print(f"  F(u_8) = {eval_F(f, f.recession, u8).total:+.3f}  "
      "(the two jumps cancel)")
lim_ext = empirical_liminf(f, f.recession, spec_ext)
print(f"  -> {lim_ext['verdict']}")
