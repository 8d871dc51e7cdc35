"""Fit a plain linear CCA and inspect what the fitted pieces mean.

Two feature views of the same 200 samples share a 3-dimensional latent
signal under independent noise. CCA should recover close to three strong
canonical pairs and leave the remaining directions near chance.
"""

import numpy as np

from venuecca import fit_cca, regularized_covariance

rng = np.random.default_rng(0)

n = 200
latent = rng.standard_normal((3, n))

# view one: 8 features, view two: 6 features, both linear in the latent
A = rng.standard_normal((8, 3))
B = rng.standard_normal((6, 3))
X = A @ latent + 0.5 * rng.standard_normal((8, n))
Y = B @ latent + 0.5 * rng.standard_normal((6, n))

model = fit_cca(X, Y, k=6, r=1e-4)
print("canonical correlations:")
print(np.array2string(model.rho, precision=3))
print("(three shared directions -> three large values, then a drop)")

# the projections are whitened (up to the small ridge): unit variance,
# orthogonal components
U = model.project(X, "image")
V = model.project(Y, "text")
Cuu = U @ U.T / (n - 1)
print("\nmax |U U^T/(n-1) - I| =", float(np.abs(Cuu - np.eye(6)).max()))

# and the cross-covariance of the projections is exactly diag(rho)
Cuv = U @ V.T / (n - 1)
print("max |U V^T/(n-1) - diag(rho)| =", float(np.abs(Cuv - np.diag(model.rho)).max()))

# the whitening identity w.r.t. the ridged covariance, checked directly
Cxx = regularized_covariance(X - model.mean_x[:, None], model.r)
print("max |Wx^T Cxx Wx - I| =", float(np.abs(model.Wx.T @ Cxx @ model.Wx - np.eye(6)).max()))

# new samples from the same generator project into the shared space
X_new = A @ rng.standard_normal((3, 5)) + 0.5 * rng.standard_normal((8, 5))
print("\nprojection of 5 fresh samples, first two components:")
print(np.array2string(model.project(X_new, "image")[:2], precision=3))
