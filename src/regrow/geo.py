"""Great-circle distance on the sphere.

Haversine with the mean Earth radius is accurate to well under 0.5%,
which is irrelevant at nearest-neighbour granularity; no ellipsoid.
"""

from __future__ import annotations

import math

import numpy as np

#: Mean Earth radius in kilometres.
EARTH_RADIUS_KM = 6371.0088


def haversine_km_many(
    lon: float, lat: float, lons: np.ndarray, lats: np.ndarray
) -> np.ndarray:
    """Distances in km from one point to arrays of (lon, lat) points."""
    phi1 = math.radians(lat)
    phi2 = np.radians(lats)
    dphi = np.radians(lats - lat)
    dlam = np.radians(lons - lon)
    a = np.sin(dphi / 2) ** 2 + math.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))
