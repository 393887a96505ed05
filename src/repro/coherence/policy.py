"""Protocol-policy layer: coherence *policy* extracted from the controllers.

The L1 and directory controllers implement the protocol *mechanism*
(transient states, message sequencing, races); everything that makes one
protocol differ from another — may a scribble enter GS/GI, what happens
to a GS copy when a remote core stores, does an UPGRADE invalidate or
update the other sharers, which base (MESI/MOESI) handles dirty-owner
forwards — is a :class:`ProtocolPolicy` value looked up by name in a
registry.  This turns the simulator into a protocol laboratory: the
paper's full design, its GS-only / GI-only ablations, and non-paper
variants (a directory-mediated write-update hybrid after Dovgopol &
Rosonke, a self-invalidation scheme after Abdulla et al.) all run
through the *same* controllers.

Registered variants (see README's protocol matrix):

==================  ======  =====  =====  ==================  ========
name                base    GS     GI     remote store on GS  UPGRADE
==================  ======  =====  =====  ==================  ========
mesi                MESI    --     --     (no GS)             invalidate
moesi               MOESI   --     --     (no GS)             invalidate
ghostwriter         MESI    yes    yes    invalidate          invalidate
ghostwriter-moesi   MOESI   yes    yes    invalidate          invalidate
gw-gs-only          MESI    yes    --     invalidate          invalidate
gw-gi-only          MESI    --     yes    (no GS)             invalidate
self-invalidate     MESI    yes    yes    demote to GI        invalidate
update-hybrid       MESI    yes    yes    invalidate          update
==================  ======  =====  =====  ==================  ========

A ``SimConfig`` names its protocol directly; :func:`resolve_policy`
combines that name with the config's d-distance: ``d_distance=0`` strips
the approximate states for the precise baseline legs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ProtocolPolicy",
    "register_protocol",
    "get_protocol",
    "available_protocols",
    "resolve_policy",
]

_BASES = ("mesi", "moesi")
_REMOTE_STORE_GS = ("invalidate", "self-invalidate")
_GS_FALLBACKS = ("config", "getx")


@dataclass(frozen=True, slots=True)
class ProtocolPolicy:
    """Every decision point the controllers delegate, as plain data.

    Frozen and hashable so a policy can ride inside frozen configs and
    cross the ``--jobs N`` process boundary; the L1 pre-resolves the
    fields it consults per access into plain attributes at construction,
    so the indirection costs nothing on the hot path.
    """

    #: Registry key; also the value of ``SimConfig.protocol``.
    name: str
    #: Precise write-invalidate base: "mesi" or "moesi".  MOESI keeps a
    #: dirty Owned copy supplying forwards instead of writing back home.
    base: str = "mesi"
    #: May a similar scribble on an S copy enter GS (local writes hidden
    #: from the directory while staying on its sharer list)?
    allows_gs: bool = False
    #: May a similar scribble on an I copy enter GI (stale local copy,
    #: invisible to the directory, bounded by the GI timeout)?
    allows_gi: bool = False
    #: What an INV does to a GS copy: "invalidate" drops it to I (the
    #: paper), "self-invalidate" demotes it to GI — the holder keeps
    #: reading its stale copy until the GI timeout flash-invalidates it
    #: (Abdulla et al.-style self-invalidation, bounded staleness).
    remote_store_gs: str = "invalidate"
    #: Directory reaction to an UPGRADE from an S sharer when *other*
    #: sharers exist: False invalidates them (write-invalidate); True
    #: pushes the written block to them (directory-mediated write-update
    #: hybrid).  A sole sharer is granted M either way, which avoids the
    #: classic update-protocol pathology of paying a directory data
    #: transaction for every private re-write.
    update_on_upgrade: bool = False
    #: How a dissimilar scribble falls back from a divergent GS copy:
    #: "config" defers to ``GhostwriterConfig.gs_fallback_getx`` (the
    #: existing ablation knob); "getx" forces the GETX path.  Update
    #: protocols must force GETX: an in-place UPGRADE from GS would
    #: publish a single word while the holder keeps divergent scribbled
    #: words in a now-coherent S line.
    gs_fallback: str = "config"
    #: One-line description for ``--protocol`` listings and docs.
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("protocol name cannot be empty")
        if self.base not in _BASES:
            raise ValueError(f"base must be one of {_BASES}, got {self.base!r}")
        if self.remote_store_gs not in _REMOTE_STORE_GS:
            raise ValueError(
                f"remote_store_gs must be one of {_REMOTE_STORE_GS}, "
                f"got {self.remote_store_gs!r}"
            )
        if self.gs_fallback not in _GS_FALLBACKS:
            raise ValueError(
                f"gs_fallback must be one of {_GS_FALLBACKS}, "
                f"got {self.gs_fallback!r}"
            )

    # -- derived views -------------------------------------------------
    @property
    def approx(self) -> bool:
        """True when any approximate (GS/GI) state is reachable."""
        return self.allows_gs or self.allows_gi

    def precise(self) -> "ProtocolPolicy":
        """This policy with the approximate states stripped (the
        ``d_distance=0`` baseline legs: same base protocol, no GS/GI)."""
        if not self.approx:
            return self
        return replace(self, allows_gs=False, allows_gi=False)

    def gs_fallback_is_getx(self, gw) -> bool:
        """Resolve the GS-fallback choice against a GhostwriterConfig."""
        if self.gs_fallback == "getx":
            return True
        return bool(gw.gs_fallback_getx)


_REGISTRY: dict[str, ProtocolPolicy] = {}


def register_protocol(policy):
    """Register a protocol variant.

    Accepts a :class:`ProtocolPolicy` directly, or decorates a zero-arg
    factory returning one::

        @register_protocol
        def _mesi() -> ProtocolPolicy: ...

    Returns the registered policy either way.
    """
    if callable(policy) and not isinstance(policy, ProtocolPolicy):
        policy = policy()
    if not isinstance(policy, ProtocolPolicy):
        raise TypeError(f"cannot register {policy!r} as a protocol")
    if policy.name in _REGISTRY:
        raise ValueError(f"protocol {policy.name!r} already registered")
    _REGISTRY[policy.name] = policy
    return policy


def get_protocol(name: str) -> ProtocolPolicy:
    """The registered policy for ``name`` (KeyError lists the options)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; registered: "
            f"{', '.join(available_protocols())}"
        ) from None


def available_protocols() -> tuple[str, ...]:
    """Registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def resolve_policy(protocol: str, approx_enabled: bool = True) -> ProtocolPolicy:
    """Map a ``SimConfig``'s protocol name and approximation switch
    (``ghostwriter.d_distance > 0``) to the effective policy: the
    registered ``protocol``, with GS/GI stripped when ``approx_enabled``
    is off — which is how a ``d_distance=0`` run executes each
    protocol's precise baseline.
    """
    policy = get_protocol(protocol)
    return policy if approx_enabled else policy.precise()


# ---------------------------------------------------------------------
# the registered variants
# ---------------------------------------------------------------------
register_protocol(ProtocolPolicy(
    name="mesi",
    description="baseline write-invalidate MESI (the paper's baseline)",
))
register_protocol(ProtocolPolicy(
    name="moesi",
    base="moesi",
    description="write-invalidate MOESI: dirty Owned copies keep "
                "supplying forwards instead of writing back home",
))
register_protocol(ProtocolPolicy(
    name="ghostwriter",
    allows_gs=True,
    allows_gi=True,
    description="the paper's full protocol: GS + GI over MESI",
))
register_protocol(ProtocolPolicy(
    name="ghostwriter-moesi",
    base="moesi",
    allows_gs=True,
    allows_gi=True,
    description="GS + GI layered over MOESI (the paper's \"most "
                "existing protocols\" claim)",
))
register_protocol(ProtocolPolicy(
    name="gw-gs-only",
    allows_gs=True,
    description="ablation: only shared copies go approximate; scribbles "
                "on I always take the conventional miss path",
))
register_protocol(ProtocolPolicy(
    name="gw-gi-only",
    allows_gi=True,
    description="ablation: only invalid copies go approximate; scribbles "
                "on S always pay the UPGRADE",
))
register_protocol(ProtocolPolicy(
    name="self-invalidate",
    allows_gs=True,
    allows_gi=True,
    remote_store_gs="self-invalidate",
    description="non-paper variant: a remote store demotes GS to GI "
                "instead of dropping it, so the holder self-invalidates "
                "at the GI timeout (Abdulla et al.-style)",
))
register_protocol(ProtocolPolicy(
    name="update-hybrid",
    allows_gs=True,
    allows_gi=True,
    update_on_upgrade=True,
    gs_fallback="getx",
    description="non-paper variant: UPGRADEs push the written block to "
                "the surviving sharers instead of invalidating them "
                "(directory-mediated write-update hybrid)",
))
