"""The traced benchmark (`perfbench/run.py --trace 1`) wraps each site's
`owner.attr` where its caller looks the name up. A name moved out of
that module passes every other test and fails only the traced run, so
the site table is checked here against the package.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402


def test_every_traced_site_resolves_and_every_checked_name_is_a_site():
    sites = layers.sites([])
    assert [name for name, site in sites.items() if not hasattr(site.owner, site.attr)] == []
    for table in (layers.CALLED, layers.IDLE):
        for workload, names in table.items():
            assert set(names) <= set(sites), (workload, sorted(set(names) - set(sites)))
