"""Exit 0 exactly when a JUnit report's failed set is the expected one.

    python .github/failed_set.py REPORT.xml [EXPECTED_TEST_NAME ...]

A test case counts as failed when it holds a failure or an error element.
An empty report fails too.
"""

import sys
import xml.etree.ElementTree as ET

expected = set(sys.argv[2:])
cases = list(ET.parse(sys.argv[1]).getroot().iter("testcase"))
failed = {c.get("name") for c in cases if c.find("failure") is not None or c.find("error") is not None}
print(f"{len(cases)} test cases; failed: {sorted(failed)}")
sys.exit(0 if cases and failed == expected else 1)
